"""The concretizer — abstract specs in, concrete specs out (§3.1, component 2).

Given a user's *abstract* spec (``amg2023+caliper``), the concretizer fills in
every remaining choice point of the build space:

* selects a concrete **version** for every package (highest preferred
  release satisfying all constraints, or the version pinned by an external);
* resolves **virtual** packages (``mpi``, ``blas``, ``lapack``) to providers,
  honouring ``packages.yaml`` provider preferences and externals;
* replaces packages with **externals** from system configuration (Figure 4)
  — an external is a leaf: it is used as-is and never rebuilt;
* fills **variants** from (in precedence order) the user spec, configuration
  preferences, then package defaults;
* assigns a **compiler** from the system's registry and a **target** from
  archspec detection;
* expands conditional **dependencies** (``depends_on(..., when=...)``) to a
  full DAG, iterating to a fixpoint because chosen variants activate deps;
* enforces declared **conflicts** on the final DAG.

Environment-wide *unification* (``concretizer: unify: true``, Figure 3) makes
all roots share one concrete spec per package name; with ``unify: false``
each root is solved independently.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.perf import ContentStore, fingerprint

from .compiler import CompilerNotFoundError, CompilerRegistry
from .config import Configuration
from .parser import parse_spec
from .repository import RepoPath, default_repo_path
from .spec import CompilerSpec, Spec, SpecError, UnsatisfiableSpecError
from .version import Version, highest, ver

__all__ = [
    "Concretizer",
    "ConcretizationError",
    "NoVersionError",
    "NoProviderError",
    "concretization_memo",
    "clear_concretization_memo",
]

#: Order in which providers are tried when configuration expresses no
#: preference.  Mirrors Spack's de-facto defaults.
_DEFAULT_PROVIDER_ORDER = {
    "mpi": ["mvapich2", "openmpi", "cray-mpich", "spectrum-mpi"],
    "blas": ["openblas", "intel-oneapi-mkl"],
    "lapack": ["openblas", "intel-oneapi-mkl"],
}

_MAX_FIXPOINT_ITERATIONS = 32

#: Process-wide memo of completed solves, shared by default across every
#: Concretizer instance.  Keys fingerprint *all* solver inputs (abstract
#: specs, merged configuration, repo recipes, compiler registry, defaults),
#: so sharing is safe: two concretizers that would solve identically hit the
#: same entry, and any input change misses.
_GLOBAL_MEMO = ContentStore("concretize")


def concretization_memo() -> ContentStore:
    """The process-wide concretization memo (hit/miss stats included)."""
    return _GLOBAL_MEMO


def clear_concretization_memo() -> None:
    """Drop all memoized solves (tests and benchmarks use this to measure
    cold-vs-warm behaviour)."""
    _GLOBAL_MEMO.clear()


class ConcretizationError(SpecError):
    pass


class NoVersionError(ConcretizationError):
    def __init__(self, name: str, constraint) -> None:
        super().__init__(
            f"package {name!r} has no version satisfying @{constraint}"
        )


class NoProviderError(ConcretizationError):
    def __init__(self, virtual: str):
        super().__init__(f"no installed or buildable provider for virtual {virtual!r}")


class Concretizer:
    """Stateless solver bound to a repo path, configuration and compilers."""

    def __init__(
        self,
        config: Optional[Configuration] = None,
        repo_path: Optional[RepoPath] = None,
        compilers: Optional[CompilerRegistry] = None,
        default_target: str = "x86_64",
        default_platform: str = "linux",
        reuse_store=None,
        memo: Optional[ContentStore] = None,
    ):
        self.config = config or Configuration()
        self.repo = repo_path or default_repo_path()
        self.compilers = compilers or CompilerRegistry()
        self.default_target = default_target
        self.default_platform = default_platform
        #: a Store to reuse installed specs from (``spack install --reuse``);
        #: None solves everything fresh
        self.reuse_store = reuse_store
        #: completed-solve memo; ``memo`` overrides the process-wide default
        #: (pass a fresh ContentStore for an uncached solve)
        self.memo: ContentStore = memo if memo is not None else _GLOBAL_MEMO

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def concretize(self, spec: Spec | str) -> Spec:
        """Concretize one abstract spec into a frozen DAG."""
        solved = self.concretize_together([spec])
        return solved[0]

    def concretize_together(self, specs: List[Spec | str], unify: bool = True) -> List[Spec]:
        """Concretize a list of roots, optionally unifying shared packages.

        Solves are memoized by content: the key fingerprints the abstract
        specs together with every other solver input (merged configuration,
        repo recipes, compiler registry, target/platform defaults).  Under
        ``unify=True`` the whole batch is one key — a root's solution depends
        on its siblings — which is exactly environment-level reuse: the same
        manifest re-concretizes in O(cache lookup).  With ``unify=False``
        each root is keyed independently, so adding one root to an
        environment re-solves only the new root.
        """
        memo_key = self._memo_key(specs, unify)
        if memo_key is not None:
            cached = self.memo.get(memo_key)
            if cached is not None:
                return [Spec.from_node_dict(d, concrete=True) for d in cached]

        roots = [parse_spec(s) if isinstance(s, str) else s.copy() for s in specs]
        results: List[Spec] = []
        cache: Dict[str, Spec] = {}
        if unify:
            for root in roots:
                results.append(self._solve(root, cache))
        else:
            for i, root in enumerate(roots):
                per_root_key = self._memo_key([specs[i]], unify=False)
                if per_root_key is not None:
                    hit = self.memo.peek(per_root_key)
                    if hit is not None:
                        results.append(Spec.from_node_dict(hit[0], concrete=True))
                        continue
                solved = self._solve(root, {})
                results.append(solved)
                if per_root_key is not None:
                    self._validate(solved)
                    self.memo.put(per_root_key, [solved.to_node_dict(deps=True)])
        for solved in results:
            self._validate(solved)
        if memo_key is not None:
            self.memo.put(memo_key, [s.to_node_dict(deps=True) for s in results])
        return results

    # ------------------------------------------------------------------
    # memoization
    # ------------------------------------------------------------------
    def _memo_key(self, specs: List[Spec | str], unify: bool) -> Optional[str]:
        """Content fingerprint of every solver input, or None when this
        solve cannot be memoized (a reuse store's contents are mutable and
        are not part of the fingerprint)."""
        if self.reuse_store is not None:
            return None
        return fingerprint({
            "specs": [
                s if isinstance(s, str) else s.to_node_dict(deps=True)
                for s in specs
            ],
            "unify": unify,
            "config": self.config.fingerprint(),
            "repo": self.repo.fingerprint(),
            "compilers": [c.to_dict() for c in self.compilers.all()],
            "target": self.default_target,
            "platform": self.default_platform,
        })

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _solve(self, root: Spec, cache: Dict[str, Spec]) -> Spec:
        # Constraints the user attached as ^dep nodes apply to the DAG, not
        # necessarily to direct dependencies; stash them for lookup.
        dag_constraints: Dict[str, Spec] = {
            name: dep for name, dep in root.dependencies.items()
        }
        bare = root.copy()
        bare.dependencies = {}
        return self._solve_node(bare, dag_constraints, cache, [])

    def _solve_node(
        self,
        spec: Spec,
        dag_constraints: Dict[str, Spec],
        cache: Dict[str, Spec],
        stack: List[str],
    ) -> Spec:
        name = spec.name
        if not name:
            raise ConcretizationError(f"cannot concretize anonymous spec {spec}")
        if name in stack:
            cycle = " -> ".join(stack + [name])
            raise ConcretizationError(f"dependency cycle: {cycle}")

        # Virtual resolution first: replace the node with its provider.
        if self.repo.is_virtual(name):
            provider = self._choose_provider(name, spec, cache)
            renamed = spec.copy()
            renamed.name = provider
            # Version constraints on a virtual (e.g. mpi@3:) do not transfer
            # to provider versions; drop them but keep variants/compiler.
            renamed.versions = None
            return self._solve_node(renamed, dag_constraints, cache, stack)

        if name in cache:
            solved = cache[name]
            if not solved.satisfies(_constraint_only(spec)):
                raise UnsatisfiableSpecError(
                    f"environment is unified but {name} was already resolved to "
                    f"{solved.format()} which does not satisfy {spec.format()}; "
                    f"set 'concretizer: unify: false' to solve roots separately"
                )
            return solved

        if name in dag_constraints and dag_constraints[name] is not spec:
            spec.constrain(_constraint_only(dag_constraints[name]))

        reused = self._try_reuse(spec, cache)
        if reused is not None:
            return reused

        pref = self._config_preference_spec(name)
        if pref is not None:
            self._soft_constrain(spec, pref)

        pkg_cls = self.repo.get_class(name)

        external = self._find_external(name, spec)
        if external is not None:
            spec.external_path = external.prefix
            spec.constrain(_constraint_only(external.spec))
            if external.spec.versions is not None:
                spec.versions = external.spec.versions
        elif not self.config.is_buildable(name):
            raise ConcretizationError(
                f"package {name!r} is marked buildable: false and no external "
                f"matching {spec.format()!r} is configured"
            )

        self._choose_version(spec, pkg_cls)
        self._fill_variants(spec, pkg_cls)
        self._choose_compiler(spec)
        if spec.target is None:
            spec.target = self.default_target
        if spec.platform is None:
            spec.platform = self.default_platform

        cache[name] = spec  # provisional: children may reference us (no cycles)

        # Externals are leaves — their deps are already baked in.
        if not spec.external:
            self._expand_dependencies(spec, pkg_cls, dag_constraints, cache, stack + [name])

        spec.mark_concrete()
        return spec

    # ------------------------------------------------------------------
    # reuse (spack install --reuse)
    # ------------------------------------------------------------------
    def _try_reuse(self, spec: Spec, cache: Dict[str, Spec]) -> Optional[Spec]:
        """Adopt an already-installed spec satisfying the constraints, if a
        reuse store is configured.  The reused DAG's nodes enter the
        unification cache so the rest of the solve shares them."""
        if self.reuse_store is None:
            return None
        constraint = _constraint_only(spec)
        candidates = self.reuse_store.query(constraint)
        if not candidates:
            return None
        # Prefer the highest version among satisfying installed specs.
        best = max(candidates, key=lambda s: s.version)
        adopted = best.copy()
        for node in adopted.traverse():
            cache.setdefault(node.name, node)
        return adopted

    # ------------------------------------------------------------------
    # choice points
    # ------------------------------------------------------------------
    def _choose_provider(self, virtual: str, spec: Spec, cache: Dict[str, Spec]) -> str:
        candidates = self.repo.providers_of(virtual)
        if not candidates:
            raise NoProviderError(virtual)
        # Already-solved provider in this environment wins (unification).
        for c in candidates:
            if c in cache:
                return c
        # packages.yaml provider preference.
        for p in self.config.virtual_providers(virtual):
            if p in candidates:
                return p
        # An external provider beats a source build.
        for c in candidates:
            if self.config.externals_for(c):
                return c
        for p in _DEFAULT_PROVIDER_ORDER.get(virtual, []):
            if p in candidates and self.config.is_buildable(p):
                return p
        buildable = [c for c in candidates if self.config.is_buildable(c)]
        if not buildable:
            raise NoProviderError(virtual)
        return buildable[0]

    def _find_external(self, name: str, spec: Spec):
        for entry in self.config.externals_for(name):
            if entry.spec.intersects(_constraint_only(spec)):
                return entry
        return None

    def _choose_version(self, spec: Spec, pkg_cls) -> None:
        available = pkg_cls.available_versions()
        if spec.external and spec.versions is not None:
            # External pinned a (possibly non-registered) version; accept it.
            return
        if spec.versions is not None and getattr(spec.versions, "concrete", False):
            if available and not any(v.satisfies(spec.versions) for v in available):
                raise NoVersionError(spec.name, spec.versions)
            return
        preferred_str = self.config.preferred_version_of(spec.name)
        if spec.versions is None and preferred_str:
            pinned = ver(preferred_str)
            matching = [v for v in available if v.satisfies(pinned)]
            if matching:
                spec.versions = highest(matching)
                return
        if spec.versions is None:
            if not available:
                raise NoVersionError(spec.name, "any")
            spec.versions = pkg_cls.preferred_version()
            return
        matching = [v for v in available if v.satisfies(spec.versions)]
        if not matching:
            raise NoVersionError(spec.name, spec.versions)
        spec.versions = highest(matching)

    def _fill_variants(self, spec: Spec, pkg_cls) -> None:
        for vname, vdef in pkg_cls.variants.items():
            if vname not in spec.variants:
                spec.variants[vname] = vdef.default
            vdef.validate(spec.variants[vname])
        unknown = set(spec.variants) - set(pkg_cls.variants)
        if unknown:
            raise ConcretizationError(
                f"{spec.name}: unknown variant(s) {sorted(unknown)}; "
                f"declared: {sorted(pkg_cls.variants)}"
            )

    def _choose_compiler(self, spec: Spec) -> None:
        if spec.compiler is not None and spec.compiler.concrete:
            if len(self.compilers):
                # Must exist on the system.
                if not self.compilers.find(spec.compiler):
                    raise CompilerNotFoundError(
                        f"no compiler {spec.compiler} registered on this system"
                    )
            return
        constraint = spec.compiler
        if constraint is None:
            default = self.config.get_path("packages.all.compiler")
            if default:
                first = default[0] if isinstance(default, list) else default
                constraint = CompilerSpec.parse(str(first))
        if len(self.compilers):
            spec.compiler = self.compilers.best(constraint).spec
        elif constraint is not None:
            if constraint.versions is None:
                raise CompilerNotFoundError(
                    f"compiler %{constraint.name} has no version and no "
                    f"registry is available to pick one"
                )
            spec.compiler = CompilerSpec(
                constraint.name, Version(str(constraint.versions))
            ) if constraint.concrete else constraint
        else:
            spec.compiler = CompilerSpec("gcc", Version("12.1.1"))

    def _expand_dependencies(
        self,
        spec: Spec,
        pkg_cls,
        dag_constraints: Dict[str, Spec],
        cache: Dict[str, Spec],
        stack: List[str],
    ) -> None:
        # Fixpoint: resolving variants may activate new conditional deps.
        # Track *declared* dependency names (virtuals resolve to providers,
        # so spec.dependencies keys alone can't tell us what was handled).
        handled: set = set()
        waves: List[List[str]] = []  # per-iteration additions, for diagnostics
        for _ in range(_MAX_FIXPOINT_ITERATIONS):
            wanted = pkg_cls.dependencies_for(spec)
            new = {n: c for n, c in wanted.items() if n not in handled}
            waves.append(sorted(new))
            for dep_name, constraint in sorted(new.items()):
                handled.add(dep_name)
                dep_spec = constraint.copy()
                # Inherit compiler/target so one toolchain builds the DAG.
                if dep_spec.compiler is None and spec.compiler is not None:
                    dep_spec.compiler = spec.compiler.copy()
                if dep_spec.target is None:
                    dep_spec.target = spec.target
                if dep_name in dag_constraints:
                    dep_spec.constrain(_constraint_only(dag_constraints[dep_name]))
                solved = self._solve_node(dep_spec, dag_constraints, cache, stack)
                spec.dependencies[solved.name] = solved
            if not new:
                return
        # Name the cycle instead of dying with a bare "no fixpoint": the
        # tail of the wave history shows exactly which conditional
        # dependencies keep (re)appearing as variants toggle.
        tail = [w for w in waves[-4:] if w]
        cycle = " -> ".join("{" + ", ".join(w) + "}" for w in tail)
        raise ConcretizationError(
            f"{spec.name}: conditional dependencies did not reach a fixpoint "
            f"after {_MAX_FIXPOINT_ITERATIONS} iterations; variants keep "
            f"toggling new dependencies (last waves: {cycle}). Check the "
            f"when= conditions of {spec.name}'s depends_on directives for a "
            f"variant/dependency cycle."
        )

    # ------------------------------------------------------------------
    # configuration preferences / validation
    # ------------------------------------------------------------------
    def _config_preference_spec(self, name: str) -> Optional[Spec]:
        return self.config.preferred_variants(name)

    @staticmethod
    def _soft_constrain(spec: Spec, pref: Spec) -> None:
        """Apply preferences only where the user expressed no opinion."""
        for vname, val in pref.variants.items():
            spec.variants.setdefault(vname, val)
        if spec.compiler is None and pref.compiler is not None:
            spec.compiler = pref.compiler.copy()

    def _validate(self, solved: Spec) -> None:
        for node in solved.traverse():
            if self.repo.exists(node.name):
                self.repo.get_class(node.name).validate_concrete(node)


def _constraint_only(spec: Spec) -> Spec:
    """A dependency-free copy of a spec, for satisfies/constrain checks."""
    c = spec.copy()
    c._concrete = False
    c.dependencies = {}
    return c
