"""Analysis and figure-data generation.

The paper's figures are gnuplot bar charts of hits and misses per cache
set, one series per variable, produced by "scripts that parse DineroIV
output".  This package regenerates the same data:

- :mod:`repro.analysis.per_set` — extract per-set series from a
  simulation result (figure data as numpy arrays / rows);
- :mod:`repro.analysis.gnuplot` — write gnuplot-compatible ``.dat`` and
  ``.gp`` files;
- :mod:`repro.analysis.ascii_plot` — terminal bar charts used by the
  examples and the benchmark harness output;
- :mod:`repro.analysis.report` — combined text reports (simulation +
  transformation + conflicts).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.per_set": ("FigureSeries", "SetSeries", "figure_series"),
        "repro.analysis.ascii_plot": ("ascii_bars", "render_figure"),
        "repro.analysis.gnuplot": ("write_gnuplot_data", "write_gnuplot_script"),
        "repro.analysis.heatmap": ("SetHeatmap", "compute_heatmap"),
        "repro.analysis.report": ("comparison_report", "simulation_report"),
        "repro.analysis.sweep": (
            "SweepPoint",
            "associativity_sweep",
            "sweep_configs",
            "sweep_table",
        ),
    },
)
