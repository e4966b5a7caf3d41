"""Runtime shard sanitizer: codec and band-ownership asserts.

The static analyzer (``repro check --rules S``) proves structural properties;
these asserts cover the runtime residue — *which ids* a worker touches and
*which values* actually cross the pipe.  Armed via ``REPRO_SHARD_SANITIZE=1``
(or a monkeypatched ``shard._SANITIZE``, which forked workers inherit — the
identity suite runs its sharded legs that way).
"""

import threading

import pytest

from repro.config import env_flag
from repro.sim import shard


class _FakeConn:
    def __init__(self):
        self.sent = []

    def send_bytes(self, blob):
        self.sent.append(blob)


@pytest.mark.parametrize(
    "bad",
    [
        lambda t: t,
        memoryview(b"x"),
        threading.Lock(),
        threading.RLock(),
        threading.Event(),
        len,
        (x for x in range(3)),
    ],
    ids=["lambda", "memoryview", "lock", "rlock", "event", "builtin", "generator"],
)
def test_codec_assert_rejects_banned_types(bad):
    with pytest.raises(AssertionError, match="shard sanitizer"):
        shard._assert_codec_safe(bad)


@pytest.mark.parametrize(
    "container",
    [
        lambda bad: ("sends", [bad]),
        lambda bad: {"k": (1, {2: bad})},
        lambda bad: [{("t",): [bad]}],
    ],
    ids=["tuple-list", "nested-dict", "deep-mix"],
)
def test_codec_assert_walks_containers(container):
    with pytest.raises(AssertionError, match="crossing the process boundary"):
        shard._assert_codec_safe(container(threading.Lock()))


def test_codec_assert_passes_real_payload_shapes():
    shard._assert_codec_safe(("round", (3, 0, "seg-0", (0, 4), (4, 8), 0, "u", 64)))
    shard._assert_codec_safe(("sends", ((0, 1, 2, 3), 0.25)))
    shard._assert_codec_safe(("state", {7: {"phase": 2, "pos": 0.5}}))


def test_worker_send_asserts_only_when_armed(monkeypatch):
    conn = _FakeConn()
    monkeypatch.setattr(shard, "_SANITIZE", False)
    shard._worker_send(conn, ("bye", None))
    assert len(conn.sent) == 1

    monkeypatch.setattr(shard, "_SANITIZE", True)
    shard._worker_send(conn, ("sends", (1, 2)))
    assert len(conn.sent) == 2
    with pytest.raises(AssertionError):
        shard._worker_send(conn, ("sends", [threading.Lock()]))
    assert len(conn.sent) == 2  # nothing crossed the boundary


def test_master_send_obj_asserts_when_armed(monkeypatch):
    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation

    monkeypatch.setattr(shard, "_SANITIZE", True)
    params = ProtocolParams(n=16, c=1.2, r=2, delta=3, tau=8, seed=1)
    sim = MaintenanceSimulation(params, workers=2)
    try:
        sim.run(2)
        runner = sim.engine._shard
        with pytest.raises(AssertionError, match="codec"):
            runner._send_obj(runner._conns[0], ("round", [lambda: 0]))
    finally:
        sim.close()


class _Band0Hash:
    """Position hash pinning every id into band 0 (of any worker count)."""

    def position(self, v, epoch):
        return 0.0


class _Engine:
    def __init__(self, workers):
        self.workers = workers
        self.services = type("S", (), {"position_hash": _Band0Hash()})()


def test_band_assert_accepts_owned_ids():
    shard._assert_band_owned(_Engine(workers=4), 0, [1, 2, 3])


def test_band_assert_rejects_foreign_ids():
    with pytest.raises(AssertionError, match="owned by band 0"):
        shard._assert_band_owned(_Engine(workers=4), 3, [1])


def test_env_flag_parses_truthy_values(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
    assert not env_flag("REPRO_TEST_FLAG")
    for truthy in ("1", "true", "YES", " on "):
        monkeypatch.setenv("REPRO_TEST_FLAG", truthy)
        assert env_flag("REPRO_TEST_FLAG"), truthy
    for falsy in ("0", "", "off", "no"):
        monkeypatch.setenv("REPRO_TEST_FLAG", falsy)
        assert not env_flag("REPRO_TEST_FLAG"), falsy
