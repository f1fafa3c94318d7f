"""Infrastructure bench: campaign runner cold-vs-warm throughput.

The campaign runner's value proposition is incremental re-runs: every
stage output (trace, transformed trace, simulation result) is
content-addressed, so re-running an unchanged grid should be bounded by
artifact-store lookups, not by simulation.  This bench times a small
grid cold (empty store) and warm (fully populated store, every point a
simulation-cache hit answered before any work starts), and asserts the
warm rerun is measurably faster.
"""

import shutil
import time

import pytest

from repro.campaign.scheduler import run_campaign
from repro.campaign.spec import CacheSpec, CampaignSpec, GridEntry

#: Long enough that simulation dominates store I/O, small enough that a
#: cold run stays in benchmark-friendly territory (128 under --quick).
BENCH_LEN = 512


@pytest.fixture(scope="module")
def bench_len(quick) -> int:
    return 128 if quick else BENCH_LEN


@pytest.fixture(scope="module")
def spec(bench_len) -> CampaignSpec:
    """The grid under test: two programs, one transform, two caches."""
    return CampaignSpec(
        name="bench",
        grid=(
            GridEntry(kernel="1a", length=bench_len, rules=("baseline", "t1")),
            GridEntry(kernel="2a", length=bench_len, rules=("baseline",)),
        ),
        caches=(CacheSpec(size=2048), CacheSpec(size=8192)),
    )


def test_cold_run(benchmark, tmp_path, spec):
    counter = iter(range(10**6))

    def fresh_dir():
        return ((tmp_path / f"cold{next(counter)}",), {})

    def cold(directory):
        result = run_campaign(spec, directory)
        assert result.n_failed == 0
        shutil.rmtree(directory)
        return result

    result = benchmark.pedantic(cold, setup=fresh_dir, rounds=3, iterations=1)
    assert result.n_done == spec.n_points() == 6
    assert result.cache_hit_rate() == 0.0


def test_warm_rerun(benchmark, tmp_path, spec):
    directory = tmp_path / "warm"
    run_campaign(spec, directory)  # populate the artifact store

    result = benchmark(lambda: run_campaign(spec, directory))
    assert result.n_done == 6
    assert result.cache_hit_rate() == 1.0  # every point a simulation hit


def test_warm_beats_cold(benchmark, tmp_path, spec, quick):
    """The acceptance claim: a re-run over a populated store is
    measurably faster than the cold run that populated it.  Under
    ``--quick`` the grid is too small for a stable timing comparison, so
    the speedup assertion only applies to full runs."""
    directory = tmp_path / "c"
    t0 = time.perf_counter()
    cold = run_campaign(spec, directory)
    cold_seconds = time.perf_counter() - t0
    assert cold.n_done == 6

    benchmark(lambda: run_campaign(spec, directory))
    warm_seconds = benchmark.stats["mean"]
    print(
        f"\ncold {cold_seconds * 1e3:.1f} ms, rerun {warm_seconds * 1e3:.1f} ms, "
        f"speedup {cold_seconds / warm_seconds:.1f}x over {cold.n_done} points"
    )
    if not quick:
        assert warm_seconds < cold_seconds
