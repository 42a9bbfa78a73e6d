"""The dependency-expansion fixpoint loop must fail loudly, naming the
packages that keep toggling, instead of silently giving up."""

import itertools

import pytest

from repro.perf import ContentStore
from repro.spack.concretizer import ConcretizationError, Concretizer
from repro.spack.package import Package
from repro.spack.parser import parse_spec
from repro.spack.repository import RepoPath, Repository
from repro.spack.version import Version


def _leaf(class_name: str):
    cls = type(class_name, (Package,), {})
    cls.versions[Version("1.0")] = {
        "sha256": None, "preferred": False, "deprecated": False,
    }
    return cls


def _repo_with_runaway_root():
    """A repo whose root package's conditional dependencies never converge:
    every fixpoint iteration discovers one more dependency."""
    repo = Repository("test")
    for i in range(40):
        repo.register(_leaf(f"W{i}"))

    counter = itertools.count()

    class Runaway(Package):
        @classmethod
        def dependencies_for(cls, spec):
            i = next(counter)  # a new dependency appears every iteration
            return {f"w{i}": parse_spec(f"w{i}")}

    Runaway.versions[Version("1.0")] = {
        "sha256": None, "preferred": False, "deprecated": False,
    }
    repo.register(Runaway)
    return repo


class TestFixpointDiagnostics:
    def test_runaway_conditional_deps_raise_named_error(self):
        concretizer = Concretizer(
            repo_path=RepoPath(_repo_with_runaway_root()),
            memo=ContentStore("solves"),
        )
        with pytest.raises(ConcretizationError) as exc_info:
            concretizer.concretize("runaway")
        message = str(exc_info.value)
        assert "runaway" in message
        assert "fixpoint" in message
        assert "when=" in message
        # the last waves name the dependencies that kept appearing
        assert "{w" in message

    def test_converging_conditionals_still_solve(self):
        """Sanity: a normal conditional dependency converges in two waves."""
        repo = Repository("test")
        repo.register(_leaf("Dep"))

        class App(Package):
            pass

        App.versions[Version("1.0")] = {
            "sha256": None, "preferred": False, "deprecated": False,
        }
        from repro.spack.variant import VariantDef

        App.variants["extra"] = VariantDef("extra", default=True)
        App.dependencies["dep"] = [{
            "spec": parse_spec("dep"),
            "when": parse_spec("+extra"),
            "type": ("build", "link"),
        }]
        repo.register(App)
        solved = Concretizer(repo_path=RepoPath(repo),
                             memo=ContentStore("solves")).concretize("app")
        assert "dep" in solved.dependencies
