"""The paper's kernels: SymmSquareCube (Algs. 3-5) and its 2.5D variant (Alg. 6).

``SymmSquareCube`` computes ``D^2`` and ``D^3`` of a symmetric matrix ``D``
distributed in ``p x p`` blocks on the front face of a ``p x p x p`` process
mesh — the communication-dominated core of density-matrix purification.

* :func:`ssc_original_program` — Algorithm 3, the GTFock release version
  (separate D^2 transpose step);
* :func:`ssc_baseline_program` — Algorithm 4, transpose eliminated and the
  point-to-point sends moved last;
* :func:`ssc_optimized_program` — Algorithm 5, the nonblocking-overlap
  version: every block split into ``N_DUP`` parts, each part on its own
  duplicated communicator, with the grid-broadcast -> row-broadcast and
  reduce -> broadcast pipelines of the paper;
* :func:`ssc25d_program` — Algorithm 6, SymmSquareCube via 2.5D
  multiplication with each collective overlapped with itself.

:func:`run_ssc` is the convenience runner used by tests, examples and the
benchmark harness.  It, :func:`run_ssc25d` and
:func:`repro.dense.run_summa` are thin wrappers over the one shared
harness :func:`run_kernel`; each kernel describes itself with a
:class:`KernelSpec` in the :data:`KERNELS` registry, which is what the
tuner, the static verifier and the CLIs consult (``docs/tuning.md``).
"""

from repro.kernels.driver import (
    KERNELS,
    KernelResult,
    KernelSpec,
    run_kernel,
)

from repro.kernels.symmsquarecube import (
    ssc_original_program,
    ssc_baseline_program,
    ssc_optimized_program,
    run_ssc,
    ssc_flops,
    SSCResult,
)
from repro.kernels.ssc25d import ssc25d_program, run_ssc25d
import repro.dense.summa  # noqa: F401,E402  (registers "summa" in KERNELS)

__all__ = [
    "KERNELS",
    "KernelResult",
    "KernelSpec",
    "run_kernel",
    "ssc_original_program",
    "ssc_baseline_program",
    "ssc_optimized_program",
    "run_ssc",
    "ssc_flops",
    "SSCResult",
    "ssc25d_program",
    "run_ssc25d",
]
