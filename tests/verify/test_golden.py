"""Tests for the golden figure corpus.

``test_paper_corpus_matches`` is the actual regression gate: any
semantic drift in the tracer, the rule engine or either simulator
changes at least one number in the checked-in JSON documents.  When the
drift is *intentional*, regenerate with::

    PYTHONPATH=src python -m repro.cli verify --paper --update-golden

and commit the diff with the change that explains it (see
``docs/TESTING.md``).
"""

import json

import pytest

from repro.cache.config import CacheConfig
from repro.verify.golden import (
    GOLDEN_DIR,
    GoldenCase,
    compare_payloads,
    load_golden,
    paper_cases,
    run_case,
    save_golden,
)
from repro.verify.runner import verify_case, verify_paper


@pytest.fixture
def small_case():
    return GoldenCase(
        name="t1-small",
        kernel="1a",
        length=16,
        rule="t1",
        caches=(("direct", CacheConfig.paper_direct_mapped()),),
    )


class TestPaperCorpus:
    def test_goldens_are_checked_in(self):
        for case in paper_cases():
            assert (GOLDEN_DIR / case.filename()).exists(), (
                f"missing golden for {case.name}; run "
                "tdst verify --paper --update-golden and commit the result"
            )

    def test_paper_corpus_matches(self):
        outcome = verify_paper(update_golden=False)
        assert outcome.ok, outcome.summary()
        assert len(outcome.cases) == 3
        assert "verify: PASS" in outcome.summary()

    def test_payload_shape(self, small_case):
        payload, result, trace, _rules = run_case(small_case)
        assert payload["trace_records"] == len(trace)
        assert payload["transformed_records"] == len(result.trace)
        assert set(payload["caches"]) == {"direct"}
        for side in ("baseline", "transformed"):
            metrics = payload["caches"]["direct"][side]
            assert metrics["accesses"] > 0
            assert metrics["hits"] + metrics["misses"] == metrics["accesses"]
        # The documents must be JSON-serialisable as-is.
        json.dumps(payload)


class TestRegeneration:
    def test_missing_golden_is_flagged(self, small_case, tmp_path):
        outcome = verify_case(small_case, golden_dir=tmp_path)
        assert outcome.golden_missing
        assert not outcome.ok
        assert "MISSING" in outcome.summary()

    def test_update_then_verify_roundtrip(self, small_case, tmp_path):
        updated = verify_case(
            small_case, update_golden=True, golden_dir=tmp_path
        )
        assert updated.updated
        assert updated.ok
        assert (tmp_path / "t1-small.json").exists()
        verified = verify_case(small_case, golden_dir=tmp_path)
        assert verified.ok, verified.summary()
        assert not verified.golden_diffs

    def test_tampered_golden_is_detected(self, small_case, tmp_path):
        payload, *_ = run_case(small_case)
        payload["caches"]["direct"]["baseline"]["misses"] += 1
        save_golden(small_case, payload, tmp_path)
        outcome = verify_case(small_case, golden_dir=tmp_path)
        assert not outcome.ok
        assert any("misses" in d for d in outcome.golden_diffs)

    def test_load_golden_absent_returns_none(self, small_case, tmp_path):
        assert load_golden(small_case, tmp_path) is None


class TestComparePayloads:
    def test_equal_documents_have_no_diffs(self):
        doc = {"a": 1, "b": {"c": [1, 2]}}
        assert compare_payloads(doc, doc) == []

    def test_changed_value_names_the_path(self):
        diffs = compare_payloads({"a": {"b": 1}}, {"a": {"b": 2}})
        assert diffs == ["a.b: 2 != expected 1"]

    def test_missing_and_unexpected_keys(self):
        diffs = compare_payloads({"a": 1}, {"b": 2})
        assert any("a: missing" in d for d in diffs)
        assert any("b: unexpected" in d for d in diffs)

    def test_list_length_mismatch(self):
        diffs = compare_payloads({"x": [1, 2]}, {"x": [1]})
        assert any("length" in d for d in diffs)
