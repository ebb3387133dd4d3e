"""Public-API hygiene: exports resolve, are documented, and stay stable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.sim", "repro.netmodel", "repro.mpi", "repro.mpi.collectives",
    "repro.dense", "repro.kernels", "repro.purify", "repro.solvers",
    "repro.particles", "repro.bench", "repro.util", "repro.tune",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        mod = importlib.import_module(module_name)
        assert mod.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module_name}.{name} missing"

    def test_every_module_all_resolves(self):
        """Each ``repro.*`` module's ``__all__`` resolves, lazy tables too."""
        modules = [info.name for info in
                   pkgutil.walk_packages(repro.__path__, "repro.")
                   if info.name.rsplit(".", 1)[-1] != "__main__"]
        assert len(modules) > len(SUBPACKAGES)
        missing = []
        for module_name in modules:
            mod = importlib.import_module(module_name)
            missing += [f"{module_name}.{name}"
                        for name in getattr(mod, "__all__", ())
                        if not hasattr(mod, name)]
        assert not missing, f"unresolvable exports: {missing}"

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3 and all(p.isdigit() for p in parts)


class TestDocumentation:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_public_callables_documented(self, module_name):
        """Every name a subpackage exports carries a docstring."""
        mod = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj) and not inspect.getdoc(obj):
                undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"undocumented exports: {undocumented}"

    def test_runners_accept_params_and_machine(self):
        """Every high-level runner exposes the model-override knobs."""
        from repro import (run_cg, run_force_step, run_matvec, run_mm25d,
                           run_mm3d, run_ssc, run_ssc25d, run_summa)
        for fn in (run_matvec, run_summa, run_mm3d, run_mm25d, run_ssc,
                   run_ssc25d, run_cg, run_force_step):
            sig = inspect.signature(fn)
            assert "params" in sig.parameters, fn.__name__
            assert "machine" in sig.parameters, fn.__name__
        # The registered-kernel runners expose every shared option of the
        # one driver (PPN rides in its Candidate argument) plus only their
        # own knobs — no runner grows an option the others lack.
        from repro.kernels import run_kernel

        def kwonly(fn):
            return {name for name, p in
                    inspect.signature(fn).parameters.items()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
        shared = kwonly(run_kernel) | {"ppn"}
        assert kwonly(run_ssc) == shared | {"n_dup"}
        assert kwonly(run_ssc25d) == shared | {"n_dup"}
        assert kwonly(run_summa) == shared | {"algorithm", "colors", "depth"}


class TestResultDataclasses:
    def test_result_types_have_elapsed_and_world(self):
        from repro.dense.matvec import MatvecResult
        from repro.dense.mm3d import MM3DResult
        from repro.dense.mm25d import MM25DResult
        from repro.dense.summa import SummaResult
        from repro.kernels.ssc25d import SSC25DResult
        from repro.kernels.symmsquarecube import SSCResult
        from repro.particles.forcedecomp import ForceStepResult
        from repro.solvers.block_cg import BlockCGResult
        from repro.solvers.cg import CGResult
        for cls in (MatvecResult, SummaResult, MM3DResult, MM25DResult,
                    ForceStepResult, CGResult, BlockCGResult):
            fields = cls.__dataclass_fields__
            assert "elapsed" in fields and "world" in fields, cls.__name__
        for cls in (SSCResult, SSC25DResult):
            fields = cls.__dataclass_fields__
            assert "times" in fields and "world" in fields, cls.__name__
