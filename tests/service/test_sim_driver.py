"""The replica machine on the simulated driver: partial COMMITs on demand.

Figures 1–3 treat COMMIT as atomic.  Here the coordinator dies after
``k`` of its ``n`` COMMIT sends (remote sites first, its own inline
last), the survivors serve writes and RECOVER rounds, the coordinator
restarts over its directory, and the safety checks read every site's
durable history.  No socket and no wall-clock sleep is involved
(``no_wire``), so every schedule is exact and repeatable.
"""

import pytest

from repro.service.invariants import check_histories, collect_histories
from sim_driver import SimCluster

pytestmark = pytest.mark.usefixtures("no_wire")


def _partial_commit(root, policy, n, sent, seed=0, drop_commits=False,
                    survivor_writes=6, batched=False):
    """Three writes, then a write whose coordinator (site 1) dies after
    *sent* COMMIT frames (*batched*: with a second write queued behind
    it, so the frames carry both as one batch); the survivors write and
    recover, site 1 restarts.  Returns the settled cluster."""
    cluster = SimCluster(root, n=n, policy=policy, seed=seed)
    for i in range(3):
        assert cluster.call(1 + i % n, "put", "k", i)["ok"]
    if drop_commits:  # the frames leave, but never arrive
        for site in cluster.sites[1:]:
            cluster.drop(1, site, "commit")
    cluster.crash_after_commits(1, sent)
    before = len(cluster.frames)
    if batched:
        boxes = [cluster.submit(1, "put", "a", "partial"),
                 cluster.submit(1, "put", "b", "partial")]
    else:
        boxes = [cluster.submit(1, "put", "k", "partial")]
    cluster.run_until(lambda: not cluster.nodes[1].up, 10.0)
    assert not cluster.nodes[1].up
    assert not any("reply" in box for box in boxes)
    commits = {frame[3] for frame in cluster.frames[before:]
               if frame[1] == 1 and frame[3].startswith("commit")}
    assert commits == ({"commit[2]"} if batched and sent else
                       {"commit"} if sent else set())
    cluster.heal()
    cluster.settle(1.5)  # the dead coordinator's leases expire
    for i in range(survivor_writes):
        # A RECOVER round still waiting out the dead site holds leases
        # longer than a queued request waits: retry, as clients do.
        for _ in range(3):
            reply = cluster.call(2 + i % (n - 1), "put", "k", f"s{i}")
            if reply["ok"]:
                break
        assert reply["ok"], reply
    cluster.settle(2.0)
    cluster.nodes[1].start()
    cluster.settle(10.0)
    return cluster


@pytest.mark.parametrize("policy", ["ODV", "OTDV"])
@pytest.mark.parametrize("n, sent",
                         [(3, k) for k in range(4)] + [(5, k) for k in range(6)])
def test_partial_commit_then_restart_stays_safe(tmp_path, policy, n, sent):
    cluster = _partial_commit(tmp_path, policy, n, sent)
    try:
        assert check_histories(collect_histories(tmp_path, cluster.sites)) \
            == []
        states = {(node.store.state.snapshot(),
                   tuple(sorted(node.store.data.items())))
                  for node in cluster.nodes.values()}
        assert len(states) == 1  # every site converged
        assert cluster.call(1, "get", "k")["value"] == "s5"
    finally:
        cluster.close()


@pytest.mark.parametrize("policy", ["ODV", "OTDV"])
@pytest.mark.parametrize("n, sent",
                         [(3, k) for k in range(4)] + [(5, k) for k in range(6)])
def test_fused_partial_commit_then_restart_stays_safe(tmp_path, policy, n,
                                                      sent):
    """The same sweep over one COMMIT that carries a batch of two
    writes (to keys ``a`` and ``b``): after the restart both are
    readable, or neither is."""
    cluster = _partial_commit(tmp_path, policy, n, sent, batched=True)
    try:
        assert check_histories(collect_histories(tmp_path, cluster.sites)) \
            == []
        states = {(node.store.state.snapshot(),
                   tuple(sorted(node.store.data.items())))
                  for node in cluster.nodes.values()}
        assert len(states) == 1
        assert cluster.call(1, "get", "k")["value"] == "s5"
        batch = [cluster.call(1, "get", key)["value"] for key in "ab"]
        assert batch in (["partial"] * 2, [None] * 2), batch
    finally:
        cluster.close()


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the orphaned commit. Site 1's own COMMIT applied "
    "while its frames to 2 and 3 were lost; after one survivor write "
    "the orphan rollback adopts a history whose P excludes site 1 "
    "(foreign-commit), after two it cannot see the rival body any more "
    "and RECOVER reinserts site 1 over it (divergent-commit)."))
@pytest.mark.parametrize("survivor_writes", [1, 2])
def test_orphaned_commit_is_rolled_back(tmp_path, survivor_writes):
    cluster = _partial_commit(tmp_path, "ODV", 3, 3, drop_commits=True,
                              survivor_writes=survivor_writes)
    cluster.settle(20.0)
    try:
        assert check_histories(collect_histories(tmp_path, cluster.sites)) \
            == []
    finally:
        cluster.close()


def _frame_log(root, seed):
    cluster = _partial_commit(root, "OTDV", 5, 2, seed=seed)
    cluster.partition((1, 2), (3, 4, 5))
    cluster.call(4, "put", "k", "minority?")
    cluster.call(1, "put", "k", "majority?")
    cluster.heal()
    cluster.settle(5.0)
    cluster.close()
    return cluster.frames


def test_same_seed_same_frame_log(tmp_path):
    first = _frame_log(tmp_path / "a", seed=7)
    assert first == _frame_log(tmp_path / "b", seed=7)
    assert first != _frame_log(tmp_path / "c", seed=8)
