"""repro.perf — the incremental, content-addressed pipeline substrate.

Two primitives shared by every layer of the reproduction:

* :func:`fingerprint` — canonical content hashing of pipeline inputs
  (specs, configs, recipes, experiment definitions);
* :class:`ContentStore` — a thread-safe, in-memory content-addressed cache
  with hit/miss statistics; its snapshots ride in campaign checkpoints,
  the only route from a store to disk.

Stage timing is not here: the loop and the analysis engine record
Caliper regions (:class:`repro.analysis.caliper.CaliperSession`).

Built on them: memoized concretization (:mod:`repro.spack.concretizer`),
parallel DAG installs (:mod:`repro.spack.installer`), cached CI jobs
(:mod:`repro.ci.pipeline`), and epoch-level result reuse
(:mod:`repro.core.continuous`).
"""

from .content_store import ContentStore
from .fingerprint import canonicalize, fingerprint, fingerprint_file, package_signature

__all__ = [
    "ContentStore",
    "canonicalize",
    "fingerprint",
    "fingerprint_file",
    "package_signature",
]
