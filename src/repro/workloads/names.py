"""The paper kernels' names, importable without the tracer.

Campaign specs and the CLI check kernel names on every run, while the
builders in :mod:`repro.workloads.paper_kernels` load the tracer's
program model; the names therefore live here on their own.
"""

#: Every name :func:`repro.workloads.paper_kernels.paper_kernel` accepts,
#: in :data:`~repro.workloads.paper_kernels.PAPER_KERNELS` order.
PAPER_KERNEL_NAMES = ("1a", "1b", "2a", "2b", "3a", "3b", "listing1")
