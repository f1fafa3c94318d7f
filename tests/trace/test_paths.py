"""The path table against per-path :class:`VariablePath` objects.

:class:`~repro.trace.paths.PathTable` splits a text table into templates
and index rows in one pass, and every layer that reads paths (labels,
the transform engine, the writers) works once per template.  These
tests pin that it means the same thing as parsing every text:

- splitting then rendering gives ``str(VariablePath.parse(text))``, the
  labels equal :func:`path_label` of the parsed path, and a malformed
  text fails decode with the parser's own exception and message;
- the column tracer and the columnar engine write the same text, v1
  and v2 bytes and chunk-blob ids as the record-at-a-time oracles in
  :mod:`tests.reference`;
- the paper traces at LEN=1024 and their T1/T2/T3 transforms keep the
  bytes pinned below;
- decoding, transforming and labelling the paper traces parses no path
  text one at a time.
"""

import hashlib
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.ctypes_model.path import VariablePath
from repro.errors import PathError
from repro.simbatch import simulate_batch
from repro.cache.config import CacheConfig
from repro.trace.binformat import load_binary, save_binary
from repro.trace.columnar import load_columnar, save_columnar
from repro.trace.columns import attribution_ids, path_label
from repro.trace.paths import PathTable
from repro.trace.stream import Trace
from repro.tracer.interp import trace_program
from repro.tracestore.chain import blob_id
from repro.transform.engine import TransformEngine
from repro.transform.paper_rules import paper_rule
from repro.transform.rule_parser import parse_rules
from repro.verify.fuzz import build_soa_case, probe_trace_for
from repro.verify.golden import paper_cases
from repro.workloads.paper_kernels import paper_kernel
from tests.reference import RecordEngine, reference_trace_program
from tests.transform.test_address_map_properties import soa_cases

RULE_CORPUS = Path(__file__).resolve().parents[1] / "data" / "rules" / "valid"

_IDENT = st.from_regex(r"[A-Za-z_$][A-Za-z0-9_$]{0,5}", fullmatch=True)
_STEP = st.one_of(
    st.builds(
        lambda value, zeros: "[" + "0" * zeros + str(value) + "]",
        st.integers(0, 10**12),
        st.integers(0, 3),
    ),
    _IDENT.map(lambda name: "." + name),
    _IDENT.map(lambda name: "->" + name),
)
#: Path texts as the parser reads them: fields, ``->``, nested indices
#: (with leading zeros) and surrounding whitespace.
PATH_TEXTS = st.builds(
    lambda lead, base, steps, trail: lead + base + "".join(steps) + trail,
    st.sampled_from(["", " ", "\t "]),
    _IDENT,
    st.lists(_STEP, max_size=6),
    st.sampled_from(["", " ", "\r", "  "]),
)


def _parse_error(text):
    """The exception :meth:`VariablePath.parse` raises for ``text``."""
    try:
        VariablePath.parse(text)
    except PathError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def malformed_texts(draw):
    """A path text with one character inserted, deleted or replaced."""
    text = draw(PATH_TEXTS)
    at = draw(st.integers(0, len(text)))
    junk = draw(st.sampled_from(list("[]().-> 0a%٣") + ["[]", "->", ""]))
    cut = draw(st.integers(0, 2))
    bad = text[:at] + junk + text[at + cut :]
    assume(_parse_error(bad) is not None)
    return bad


def _v1_bytes(texts):
    """A one-record v1 trace whose variable table is ``texts``."""
    record = struct.pack("<BBBBHHIQ", 0, 0, 0xFF, 0xFF, 4, 0xFFFF, 0, 0x1000)
    blobs = [zlib.compress(b""), zlib.compress("\n".join(texts).encode()), zlib.compress(record)]
    header = b"TDST\x01" + struct.pack("<IIII", *map(len, blobs), 1)
    return header + b"".join(blobs)


class TestSplit:
    @given(texts=st.lists(PATH_TEXTS, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_render_labels_and_paths_match_the_parser(self, texts):
        table = PathTable.from_texts(texts)
        parsed = [VariablePath.parse(text) for text in texts]
        assert table.texts() == tuple(texts)  # kept as read, for the writers
        rendered = PathTable(table.templates, table.template_id, table.index)
        assert rendered.texts() == tuple(str(p) for p in parsed)
        assert list(table) == parsed
        assert [table[i] for i in range(len(texts))] == parsed
        assert len(table.templates) == len(set(table.templates))
        for mode in ("base", "member"):
            names, ids = attribution_ids(np.arange(len(texts)), table, mode)
            assert [names[i] for i in ids] == [path_label(p, mode) for p in parsed]

    @given(
        before=st.lists(PATH_TEXTS, max_size=4),
        bad=malformed_texts(),
        after=st.lists(st.one_of(PATH_TEXTS, malformed_texts()), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_malformed_text_fails_as_the_parser_fails(self, before, bad, after, tmp_path_factory):
        want = _parse_error(bad)
        with pytest.raises(PathError) as table_error:
            PathTable.from_texts([*before, bad, *after])
        assert (type(table_error.value), str(table_error.value)) == want
        path = tmp_path_factory.mktemp("v1") / "bad.tdst"
        path.write_bytes(_v1_bytes([*before, bad, *after]))
        with pytest.raises(PathError) as decode_error:
            load_binary(path)
        assert (type(decode_error.value), str(decode_error.value)) == want

    def test_templates_of_the_paper_traces(self):
        templates = set()
        for kernel in ("1a", "2a", "3a"):
            paths = trace_program(paper_kernel(kernel, length=1024)).columns().paths
            templates |= set(paths.templates)
        assert len(templates) == 8
        assert "lS1[].mRarelyUsed.mY" in templates

    def test_index_beyond_int64_is_refused(self):
        with pytest.raises(PathError, match="does not fit in 64 bits"):
            PathTable.from_texts(["a[1]", "b[99999999999999999999]"])


# -- the oracles: record-at-a-time tracer and engine -------------------------------


def _files(trace, tmp_path, tag):
    """Text, v1 and v2 bytes of ``trace`` and its blob id."""
    out = {}
    for name, save in (("text", Trace.save), ("v1", save_binary), ("v2", save_columnar)):
        path = tmp_path / f"{tag}.{name}"
        save(trace, path)
        out[name] = path.read_bytes()
    out["blob"] = blob_id(trace)
    return out


def assert_tracers_agree(program, tmp_path):
    got = trace_program(program)
    want = reference_trace_program(program)
    assert _files(got, tmp_path, "columns") == _files(want, tmp_path, "records")
    return got, want


def assert_engines_agree(rule_text, trace, tmp_path):
    """Columnar == per-record engine on the trace and on its v1 and v2
    decodes (tables with kept texts), whole and in pieces."""
    variants = {"built": trace}
    for name, save, load in (("v1", save_binary, load_binary), ("v2", save_columnar, load_columnar)):
        save(trace, tmp_path / f"in.{name}")
        variants[name] = load(tmp_path / f"in.{name}")
    want = RecordEngine(parse_rules(rule_text)).transform(trace).trace
    expected = _files(want, tmp_path, "records")
    for name, source in variants.items():
        got = TransformEngine(parse_rules(rule_text)).transform(source).trace
        assert _files(got, tmp_path, "columns") == expected, name
        engine = TransformEngine(parse_rules(rule_text))
        cut = len(source) // 3
        pieces = [engine.transform(source[a:b]).trace for a, b in ((0, cut), (cut, len(source)))]
        assert [r for piece in pieces for r in piece] == list(want), name


@pytest.mark.parametrize("case", paper_cases(), ids=lambda c: c.name)
def test_golden_corpus(case, tmp_path):
    trace, _ = assert_tracers_agree(paper_kernel(case.kernel, length=case.length), tmp_path)
    rules = paper_rule(case.rule, length=case.length)
    want = RecordEngine(rules).transform(trace).trace
    got = TransformEngine(paper_rule(case.rule, length=case.length)).transform(trace).trace
    assert _files(got, tmp_path, "columns") == _files(want, tmp_path, "records")


@pytest.mark.parametrize("path", sorted(RULE_CORPUS.glob("*.rules")), ids=lambda p: p.stem)
def test_rule_corpus(path, tmp_path):
    text = path.read_text()
    assert_engines_agree(text, Trace(probe_trace_for(parse_rules(text))), tmp_path)


@pytest.mark.fuzz
@given(case=soa_cases())
@settings(max_examples=25, deadline=None)
def test_fuzz_programs(case, tmp_path_factory):
    program, rule_text = build_soa_case(*case)
    tmp_path = tmp_path_factory.mktemp("fuzz")
    trace, _ = assert_tracers_agree(program, tmp_path)
    assert_engines_agree(rule_text, trace, tmp_path)


# -- pins and the parse spy ----------------------------------------------------------

#: SHA-256 of the v1 and v2 bytes of each paper trace at LEN=1024 and of
#: its transform, computed with one ``VariablePath`` per path.
PINS = {
    ("1a", "t1"): (
        ("1bbe412041e5af3e7983b9cf76965aab47ce02b48a6726a19bb2301a4eb5fe4f", "97ff09a3ffb2c92256e52ac039251f6d0e0a80b286a3733787d4a86d6c49bae4"),
        ("d2074ddceb99ee77f4651825ce37dd54f1cfd8c65e0bee89469dae342e591168", "4e34c415a2f7fdf357f11d5648e28b14798f0b24f6fae3b0b7f01d20e6a1db70"),
    ),
    ("2a", "t2"): (
        ("0245283b7f6d82ac8e929a9045d3834a5834b7867c651a541b83e7614a003a08", "d9b7cbcc06a11fcc22ddbd12ac903546b4d73ea98cb9e11b00d0bd52ee899308"),
        ("e48a605ef452e017d590d59d2d7305b601fa7aa1ecc9630e9c5c672c9369bf1c", "234ac0540bb59b4f4cb61d0dce96aafc6debb2055d80ad2f3e51b6d060557052"),
    ),
    ("3a", "t3"): (
        ("c7b65fc07f6daf0b9eba67ba7256d7e83b5d1a824a15db6a0461dc6efda0d2a1", "cee3f2a3eef71958077f222e097d7618e1b2ebb7d480031fd5fe06b531b3e8cd"),
        ("4f44bb8276717bf653f1c6b74ca1f43e2981581f1d5819ceb4d2b05ddad42e75", "3e9b79f85d0fd814d3d2179e39f599d7d036c5a3211bcc922085d2aa668d31b3"),
    ),
}


def _sha(save, trace, path):
    save(trace, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kernel, rule", sorted(PINS))
def test_paper_bytes_are_pinned(kernel, rule, tmp_path):
    trace = trace_program(paper_kernel(kernel, length=1024))
    out = TransformEngine(paper_rule(rule, length=1024)).transform(trace).trace
    got = tuple(
        (_sha(save_binary, t, tmp_path / "t.v1"), _sha(save_columnar, t, tmp_path / "t.v2"))
        for t in (trace, out)
    )
    assert got == PINS[kernel, rule]


def test_paper_pipeline_parses_each_template_at_most_once(tmp_path, monkeypatch):
    """v1-decode the three paper traces twice each (as a cold campaign
    does), transform them with T1/T2/T3 and label the results for
    simulation: no path text is parsed one at a time."""
    calls = []
    parse = VariablePath.parse.__func__

    def spy(cls, text):
        calls.append(text)
        return parse(cls, text)

    traces = {}
    for kernel in ("1a", "2a", "3a"):
        save_binary(trace_program(paper_kernel(kernel, length=1024)), tmp_path / kernel)
    monkeypatch.setattr(VariablePath, "parse", classmethod(spy))
    templates = set()
    config = CacheConfig(size=8 * 1024, block_size=32, associativity=2, policy="lru")
    for kernel, rule in (("1a", "t1"), ("2a", "t2"), ("3a", "t3")):
        for _ in range(2):
            traces[kernel] = load_binary(tmp_path / kernel)
        templates |= set(traces[kernel].columns().paths.templates)
        out = TransformEngine(paper_rule(rule, length=1024)).transform(traces[kernel]).trace
        templates |= set(out.columns().paths.templates)
        for mode in ("base", "member"):
            assert simulate_batch(out, [config], attribution=mode).names
    assert len(calls) <= len(templates)
