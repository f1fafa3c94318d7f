"""End-to-end tests of the ``tdst`` CLI."""

import pytest

from repro.cli import main
from repro.trace.stream import Trace
from repro.transform.paper_rules import RULE_T1_SOA_TO_AOS


@pytest.fixture
def traced_kernel(tmp_path):
    out = tmp_path / "t1a.out"
    assert main(["trace", "1a", "--length", "16", "-o", str(out)]) == 0
    return out


class TestTrace:
    def test_trace_writes_file(self, traced_kernel):
        trace = Trace.load(traced_kernel)
        assert len(trace) > 0

    def test_all_kernels(self, tmp_path):
        for kernel in ("1b", "2a", "2b", "3a", "3b", "listing1"):
            out = tmp_path / f"{kernel}.out"
            assert main(["trace", kernel, "--length", "8", "-o", str(out)]) == 0


class TestBinaryTraces:
    @pytest.fixture
    def binary_trace(self, tmp_path):
        out = tmp_path / "t1a.tdst"
        assert (
            main(["trace", "1a", "--length", "16", "--binary", "-o", str(out)])
            == 0
        )
        return out

    def test_binary_flag_writes_binformat(self, binary_trace, traced_kernel):
        assert binary_trace.read_bytes()[:4] == b"TDST"
        assert Trace.load_any(binary_trace) == Trace.load(traced_kernel)

    def test_stats_autodetects_binary(self, binary_trace, capsys):
        assert main(["stats", str(binary_trace)]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out
        assert "lSoA" in out

    def test_simulate_autodetects_binary(self, binary_trace, capsys):
        assert main(["simulate", str(binary_trace)]) == 0
        assert "demand accesses" in capsys.readouterr().out

    def test_transform_autodetects_binary(self, binary_trace, tmp_path, capsys):
        rules = tmp_path / "t1.rules"
        rules.write_text(RULE_T1_SOA_TO_AOS.format(length=16))
        out = tmp_path / "t1a.t1.out"
        assert (
            main(
                ["transform", str(binary_trace), str(rules), "-o", str(out)]
            )
            == 0
        )
        assert len(Trace.load(out)) > 0


class TestStats:
    def test_stats_prints(self, traced_kernel, capsys):
        assert main(["stats", str(traced_kernel)]) == 0
        out = capsys.readouterr().out
        assert "accesses" in out
        assert "lSoA" in out


class TestSimulate:
    def test_default_cache(self, traced_kernel, capsys):
        assert main(["simulate", str(traced_kernel)]) == 0
        assert "demand accesses" in capsys.readouterr().out

    def test_custom_geometry(self, traced_kernel, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(traced_kernel),
                    "--size",
                    "1024",
                    "--block",
                    "64",
                    "--assoc",
                    "2",
                    "--policy",
                    "fifo",
                ]
            )
            == 0
        )
        assert "fifo" in capsys.readouterr().out

    def test_ppc440_preset(self, traced_kernel, capsys):
        assert main(["simulate", str(traced_kernel), "--ppc440"]) == 0
        assert "round-robin" in capsys.readouterr().out

    def test_plot_flag(self, traced_kernel, capsys):
        assert main(["simulate", str(traced_kernel), "--plot"]) == 0
        out = capsys.readouterr().out
        assert "cache sets" in out


class TestThreeC:
    def test_threec_report(self, traced_kernel, capsys):
        assert main(["threec", str(traced_kernel)]) == 0
        out = capsys.readouterr().out
        assert "compulsory" in out and "conflict" in out
        assert "lSoA" in out


class TestPhysical:
    def test_simulate_with_coloring(self, traced_kernel, capsys):
        assert (
            main(["simulate", str(traced_kernel), "--physical", "coloring"]) == 0
        )
        assert "demand accesses" in capsys.readouterr().out

    def test_simulate_with_random_frames(self, traced_kernel, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(traced_kernel),
                    "--physical",
                    "random",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert "demand accesses" in capsys.readouterr().out


class TestExtendedRules:
    def test_displace_rule_file(self, traced_kernel, tmp_path, capsys):
        rules = tmp_path / "d.rules"
        rules.write_text("displace:\nlSoA + 4096\n")
        out = tmp_path / "out.trace"
        assert (
            main(["transform", str(traced_kernel), str(rules), "-o", str(out)])
            == 0
        )
        assert "transformed   : 32" in capsys.readouterr().out


class TestSweep:
    def test_sweep_table(self, traced_kernel, capsys):
        assert (
            main(
                [
                    "sweep",
                    str(traced_kernel),
                    "--size",
                    "2048",
                    "--block",
                    "32",
                    "--max-ways",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ratio" in out
        assert out.count("2048 bytes") == 3  # 1,2,4-way rows

    @pytest.mark.parametrize(
        "policy, misses",
        [("lru", [36, 28, 26, 26]), ("fifo", [36, 31, 27, 27])],
    )
    def test_sweep_rows(self, tmp_path, capsys, policy, misses):
        """Miss columns of a 512-byte sweep: LRU rows come from one
        kernel pass, FIFO rows above one way from the reference
        simulator."""
        path = tmp_path / "t.out"
        assert main(["trace", "1a", "--length", "64", "-o", str(path)]) == 0
        capsys.readouterr()
        argv = ["sweep", str(path), "--size", "512", "--max-ways", "8",
                "--policy", policy]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [int(row.split()[-2]) for row in rows] == misses
        assert all(row.split()[-3] == "516" for row in rows)

    def test_sweep_has_no_workers_option(self, traced_kernel, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        assert "--workers" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(traced_kernel), "--workers", "2"])
        assert exit_info.value.code == 2


class TestHeatmap:
    def test_heatmap_renders(self, traced_kernel, capsys):
        assert main(["heatmap", str(traced_kernel), "--window", "20"]) == 0
        out = capsys.readouterr().out
        assert "heatmap" in out

    def test_heatmap_variable_filter(self, traced_kernel, capsys):
        assert (
            main(
                [
                    "heatmap",
                    str(traced_kernel),
                    "--window",
                    "20",
                    "--variable",
                    "lSoA",
                    "--kind",
                    "misses",
                ]
            )
            == 0
        )
        assert "misses heatmap" in capsys.readouterr().out


class TestAdvise:
    def test_advise_suggests_split(self, tmp_path, capsys):
        # Build a hot/cold workload trace via the library.
        from repro.ctypes_model.types import ArrayType, DOUBLE, INT, StructType
        from repro.tracer.expr import V
        from repro.tracer.interp import trace_program
        from repro.tracer.program import Function, Program
        from repro.tracer.stmt import (
            Assign,
            DeclLocal,
            StartInstrumentation,
            simple_for,
        )

        layout_text = (
            "struct parts { double x; double vx; double mass; }[32];"
        )
        layout_file = tmp_path / "layout.h"
        layout_file.write_text(layout_text)
        p = StructType(
            "parts", [("x", DOUBLE), ("vx", DOUBLE), ("mass", DOUBLE)]
        )
        body = [
            DeclLocal("parts", ArrayType(p, 32)),
            DeclLocal("i", INT),
            StartInstrumentation(),
            *simple_for(
                "i",
                0,
                32,
                [Assign(V("parts")[V("i")].fld("x"), V("parts")[V("i")].fld("vx"))],
            ),
        ]
        program = Program()
        program.add_function(Function("main", body=body))
        trace_path = tmp_path / "t.out"
        trace_program(program).save(trace_path)

        rules_out = tmp_path / "suggested.rules"
        assert (
            main(
                [
                    "advise",
                    str(trace_path),
                    str(layout_file),
                    "parts",
                    "--rules-out",
                    str(rules_out),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hot/cold split suggestion" in out
        assert rules_out.exists()
        from repro.transform.rule_parser import parse_rules

        assert len(parse_rules(rules_out.read_text())) == 1

    def test_advise_unknown_variable(self, traced_kernel, tmp_path, capsys):
        layout_file = tmp_path / "layout.h"
        layout_file.write_text("struct s { int a; };")
        assert (
            main(["advise", str(traced_kernel), str(layout_file), "ghost"]) == 1
        )


class TestConvert:
    def test_text_to_binary_and_back(self, traced_kernel, tmp_path, capsys):
        binary = tmp_path / "t.tdst"
        assert main(["convert", str(traced_kernel), str(binary)]) == 0
        back = tmp_path / "back.out"
        assert (
            main(
                [
                    "convert",
                    str(binary),
                    str(back),
                    "--from",
                    "binary",
                    "--to",
                    "text",
                ]
            )
            == 0
        )
        assert Trace.load(back) == Trace.load(traced_kernel)

    def test_text_to_din(self, traced_kernel, tmp_path):
        din = tmp_path / "t.din"
        assert (
            main(["convert", str(traced_kernel), str(din), "--to", "din"]) == 0
        )
        first = din.read_text().splitlines()[0].split()
        assert first[0] in ("0", "1", "2")


class TestTransformAndDiff:
    def test_transform_pipeline(self, traced_kernel, tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_text(RULE_T1_SOA_TO_AOS.format(length=16))
        out = tmp_path / "transformed_trace.out"
        assert (
            main(["transform", str(traced_kernel), str(rules), "-o", str(out)])
            == 0
        )
        text = capsys.readouterr().out
        assert "transformed   : 32" in text
        transformed = Trace.load(out)
        assert any(r.base_name == "lAoS" for r in transformed)

        assert main(["diff", str(traced_kernel), str(out)]) == 0
        diff_text = capsys.readouterr().out
        assert "changed=" in diff_text

    def test_figure_with_gnuplot_output(self, traced_kernel, tmp_path, capsys):
        dat = tmp_path / "f.dat"
        gp = tmp_path / "f.gp"
        assert (
            main(
                [
                    "figure",
                    str(traced_kernel),
                    "--attribution",
                    "member",
                    "--dat",
                    str(dat),
                    "--gp",
                    str(gp),
                ]
            )
            == 0
        )
        assert dat.exists() and gp.exists()
        assert "lSoA.mX" in dat.read_text()


#: ``tdst sim --fast --size 256 --assoc 2`` on ``tdst trace 1a --length
#: 64``, whatever the container; only the chunk count varies.
FAST_1A_64_LINES = [
    "L1: 256 bytes, 32 bytes/block, 2-way, 4 sets, lru, write-back, "
    "write-allocate",
    "demand accesses : 516",
    "demand misses   : 35 (miss rate 0.0678)",
    "block hits      : 481",
    "block misses    : 35 (compulsory 25)",
    "evictions       : 27",
]


class TestFastSimulate:
    @pytest.mark.parametrize("container", ["text", "binary", "columnar"])
    @pytest.mark.parametrize("chunk, chunks", [(None, 1), (100, 6)])
    def test_fast_output_on_every_container(
        self, tmp_path, capsys, container, chunk, chunks
    ):
        path = tmp_path / "t.out"
        assert main(["trace", "1a", "--length", "64", "-o", str(path)]) == 0
        if container != "text":
            text, path = path, tmp_path / f"t.{container}"
            assert main(["convert", str(text), str(path), "--to", container]) == 0
        capsys.readouterr()
        argv = ["sim", str(path), "--fast", "--size", "256", "--assoc", "2"]
        if chunk is not None:
            argv += ["--chunk", str(chunk)]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{path} (fast path, {chunks} chunks)",
            *FAST_1A_64_LINES,
            f"chunks          : {chunks}",
        ]

    def test_fast_flag_streams_trace(self, traced_kernel, capsys):
        assert main(["sim", str(traced_kernel), "--fast", "--chunk", "50"]) == 0
        out = capsys.readouterr().out
        assert "fast path" in out
        assert "demand accesses" in out
        assert "chunks" in out

    def test_fast_matches_reference_output_counts(self, traced_kernel, capsys):
        assert main(["simulate", str(traced_kernel), "--assoc", "4"]) == 0
        reference = capsys.readouterr().out
        assert main(["sim", str(traced_kernel), "--assoc", "4", "--fast"]) == 0
        fast = capsys.readouterr().out

        def block_misses(text):
            line = next(l for l in text.splitlines() if "block misses" in l)
            return line.split(":")[1].split("(")[0].strip()

        assert block_misses(reference) == block_misses(fast)

    def test_check_validates_window(self, traced_kernel, capsys):
        assert (
            main(
                ["sim", str(traced_kernel), "--assoc", "2", "--fast",
                 "--check", "--check-window", "200"]
            )
            == 0
        )
        assert "kernel agreement: ok" in capsys.readouterr().out

    def test_check_without_fast_is_an_error(self, traced_kernel, capsys):
        assert main(["sim", str(traced_kernel), "--check"]) == 2
        assert "requires --fast" in capsys.readouterr().out

    def test_fast_rejects_uncovered_config(self, traced_kernel, capsys):
        argv = ["sim", str(traced_kernel), "--fast", "--assoc", "4",
                "--policy", "plru"]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert "no fast path" in out and "plru" in out

    def test_fast_rejects_physical(self, traced_kernel, capsys):
        assert (
            main(["sim", str(traced_kernel), "--fast", "--physical", "random"])
            == 2
        )
        assert "error" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sim", "simbatch"])
    @pytest.mark.parametrize("chunk", ["0", "-5"])
    def test_chunk_must_be_positive(self, traced_kernel, capsys, command, chunk):
        argv = [command, str(traced_kernel), "--chunk", chunk]
        if command == "sim":
            argv.append("--fast")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --chunk: must be a positive integer, got {chunk}" in err

    def test_sim_alias(self, traced_kernel):
        assert main(["sim", str(traced_kernel)]) == 0
