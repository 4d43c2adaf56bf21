"""The committed golden corpus still matches what the batch path returns.

See :mod:`tests.golden_corpus` for what the fixture pins and how to
regenerate it.  Each case runs twice: serially (``summarize_many``'s
default call) and on the pool named by ``SERVING_TEST_EXECUTOR`` with
``SERVING_TEST_WORKERS`` workers (CI matrix: thread/process × 1/4), with
an explicit ``shard_size`` so even one worker goes through sharding.
"""

from __future__ import annotations

import json
import os

import pytest

from tests import golden_corpus

WORKERS = int(os.environ.get("SERVING_TEST_WORKERS", "4"))
EXECUTOR = os.environ.get("SERVING_TEST_EXECUTOR", "thread")


@pytest.fixture(scope="module")
def golden() -> dict[str, list[dict]]:
    return json.loads(golden_corpus.FIXTURE.read_text())


def assert_matches(records: list[dict], expected: list[dict]) -> None:
    assert [r["id"] for r in records] == [e["id"] for e in expected]
    for ours, theirs in zip(records, expected):
        assert ours == theirs, f"item {theirs['id']} differs from the golden corpus"


def test_fixture_covers_every_case(golden):
    assert list(golden) == [golden_corpus.case_name(*c) for c in golden_corpus.CASES]
    assert {k for _, k, _ in golden_corpus.CASES} == {None, 2, 4}
    assert {s for _, _, s in golden_corpus.CASES} == {True, False}
    verdicts = [r for items in golden.values() for r in items]
    assert any("quarantine" in r for r in verdicts)
    assert any(r.get("degradation", {}).get("degraded") for r in verdicts)


@pytest.mark.parametrize(
    "case", golden_corpus.CASES, ids=lambda c: golden_corpus.case_name(*c)
)
def test_serial_matches_golden(golden, case):
    assert_matches(golden_corpus.run_case(*case), golden[golden_corpus.case_name(*case)])


@pytest.mark.parametrize(
    "case", golden_corpus.CASES, ids=lambda c: golden_corpus.case_name(*c)
)
def test_pool_matches_golden(golden, case):
    records = golden_corpus.run_case(
        *case, workers=WORKERS, shard_size=2, executor=EXECUTOR
    )
    assert_matches(records, golden[golden_corpus.case_name(*case)])
