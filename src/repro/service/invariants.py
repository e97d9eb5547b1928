"""Offline safety checks over the replicas' durable commit histories.

After a bench run the replica processes are gone; what remains is the
ground truth — each site's history log, snapshot and WAL.  These checks are the live
counterparts of the simulator's
:class:`~repro.chaos.monitor.InvariantMonitor` records:

* ``divergent-commit`` — two replicas applied the same operation
  number with different bodies (version, partition set, kind or write
  digest).  Commits are totally ordered by mutual exclusion, so this
  can never happen while the protocols hold;
* ``non-monotone-state`` — a replica's history shows ``o`` or ``v``
  going backwards (or ``v > o``), which the runtime guards should have
  made impossible;
* ``foreign-commit`` — a replica applied a commit whose partition set
  does not contain it: COMMIT is addressed to exactly the new ``P``.

Zero violations is the bench's acceptance gate.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterable, Iterator, Mapping, Union

from repro.service.store import commit_body, read_history

__all__ = [
    "check_histories",
    "collect_histories",
]


class _SiteHistories(Mapping):
    """``{site: history}`` streamed from the data directories on access.

    A history grows with the cluster's age; each lookup yields one
    record at a time, so the safety sweep's memory is flat in both the
    number of sites and their age.
    """

    def __init__(self, root: pathlib.Path, sites: list[int]):
        self._directories = {
            site: directory for site in sites
            if (directory := root / f"site-{site}").exists()
        }

    def __getitem__(self, site: int) -> Iterator[dict[str, Any]]:
        return read_history(self._directories[site])

    def __iter__(self) -> Iterator[int]:
        return iter(self._directories)

    def __len__(self) -> int:
        return len(self._directories)


def collect_histories(
    root: Union[str, pathlib.Path],
    sites: Iterable[int],
) -> Mapping[int, Iterator[dict[str, Any]]]:
    """Every site's commit history, streamed from its data directory.

    *root* is the cluster directory (``site-<n>`` subdirectories, as
    :class:`~repro.service.cluster.LocalCluster` lays them out); a
    site without one is not in the mapping.  Each lookup returns a
    fresh one-pass iterator over that site's history log and then its
    WAL (:func:`~repro.service.store.read_history`), read-only.

    Raises:
        WALCorruptionError: while iterating, if that site's files are
            corrupt mid-log — a finding in its own right, surfaced
            loudly.
    """
    return _SiteHistories(pathlib.Path(root), sorted(int(s) for s in sites))


def check_histories(
    histories: Mapping[int, Iterable[Mapping[str, Any]]],
) -> list[dict[str, Any]]:
    """Run every safety check; returns the violations (empty = safe).

    Each site's history is iterated once, so one-pass iterators (what
    :func:`collect_histories` returns) are fine.
    """
    violations: list[dict[str, Any]] = []
    bodies: dict[int, tuple] = {}
    body_owner: dict[int, int] = {}
    for site in sorted(histories):
        previous_operation = 0
        previous_version = 0
        for entry in histories[site]:
            operation = int(entry["operation"])
            version = int(entry["version"])
            members = frozenset(int(s) for s in entry["partition_set"])
            if operation <= previous_operation or version < previous_version:
                violations.append({
                    "invariant": "non-monotone-state",
                    "site": site,
                    "detail": (
                        f"(o, v) went {previous_operation, previous_version}"
                        f" -> {operation, version} at site {site}"
                    ),
                })
            if version > operation:
                violations.append({
                    "invariant": "non-monotone-state",
                    "site": site,
                    "detail": (
                        f"version {version} exceeds operation {operation} "
                        f"at site {site}"
                    ),
                })
            if site not in members:
                violations.append({
                    "invariant": "foreign-commit",
                    "site": site,
                    "detail": (
                        f"site {site} applied operation {operation} whose "
                        f"partition set {sorted(members)} excludes it"
                    ),
                })
            body = commit_body(entry)
            if operation in bodies and bodies[operation] != body:
                violations.append({
                    "invariant": "divergent-commit",
                    "site": site,
                    "detail": (
                        f"operation {operation} committed as "
                        f"{bodies[operation]} at site "
                        f"{body_owner[operation]} but {body} at site {site}"
                    ),
                })
            else:
                bodies.setdefault(operation, body)
                body_owner.setdefault(operation, site)
            previous_operation = operation
            previous_version = version
    return violations
