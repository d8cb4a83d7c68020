import sys

import pytest

from tracer import TARGETS, Tracer, instrument


class ScriptedClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_direct_children_only():
    # A[0,10] encloses B[1,4] and C[5,9]; C encloses B[6,7].
    tracer = Tracer(clock=ScriptedClock([0, 1, 4, 5, 6, 7, 9, 10]))
    tracer.enter("A")
    tracer.enter("B")
    tracer.exit()
    tracer.enter("C")
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    stats = tracer.snapshot()
    assert stats["A"] == {"calls": 1, "self_s": 3, "total_s": 10}
    assert stats["B"] == {"calls": 2, "self_s": 4, "total_s": 4}
    assert stats["C"] == {"calls": 1, "self_s": 3, "total_s": 4}
    assert sum(s["self_s"] for s in stats.values()) == stats["A"]["total_s"]


def test_recursive_span_counts_total_once():
    # A[0,8] encloses A[2,5]: both calls count, the time counts once.
    tracer = Tracer(clock=ScriptedClock([0, 2, 5, 8]))
    tracer.enter("A")
    tracer.enter("A")
    tracer.exit()
    tracer.exit()
    assert tracer.snapshot()["A"] == {"calls": 2, "self_s": 8, "total_s": 8}


@pytest.fixture
def restore_akltblock():
    """Undo instrument(): put back every akltblock module attribute."""
    import akltblock.cli  # noqa: F401  (loads every traced module)
    from akltblock.oracle.fock import StateVector

    saved = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name == "akltblock" or name.startswith("akltblock.")
    }
    to_dense = StateVector.__dict__["to_dense"]
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)
    StateVector.to_dense = to_dense


def test_rebinding_reaches_from_imports_and_methods(restore_akltblock):
    from akltblock import cli, spectrum, verify
    from akltblock.oracle import fock

    original = spectrum.block_spectrum
    tracer = Tracer()
    sites = instrument(tracer)

    assert {"akltblock.cli.block_spectrum", "akltblock.verify.fock_block_spectrum"} <= set(sites)
    assert "akltblock.oracle.fock.StateVector.to_dense" in sites
    assert cli.block_spectrum is spectrum.block_spectrum
    assert cli.block_spectrum.__wrapped__ is original
    assert verify.fock_block_spectrum is fock.fock_block_spectrum

    cli.block_spectrum(2, 3)
    fock.build_full_vbs(1, 2).to_dense()
    stats = tracer.snapshot()
    assert stats["spectrum.block_spectrum"]["calls"] == 1
    # block_spectrum reaches eigenvalue_recurrence through its module global.
    assert stats["spectrum.eigenvalue_recurrence"]["calls"] == 3
    assert stats["oracle.build_full_vbs"]["calls"] == 1
    assert stats["oracle.StateVector.to_dense"]["calls"] == 1


def test_every_target_resolves(restore_akltblock):
    sites = instrument(Tracer())
    for name, module, path in TARGETS:
        assert any(site.endswith("." + path.split(".")[-1]) for site in sites), name
