"""The benchmark's trace wraps named fklab attributes from outside the
package; renaming or removing one of them must fail here, not only in a
traced benchmark run."""

import importlib.util
import inspect
import pathlib
import types

import numpy as np

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_seams_install_and_uninstall():
    from fklab import feynman_kac, rds_core

    spans = load_spans()
    before = (rds_core.RDSModel.__dict__["step_many"], feynman_kac.particle_fk)
    uninstall = spans.install(spans.Recorder())
    try:
        assert rds_core.RDSModel.__dict__["step_many"] is not before[0]
        assert feynman_kac.particle_fk is not before[1]
    finally:
        uninstall()
    assert (rds_core.RDSModel.__dict__["step_many"], feynman_kac.particle_fk) == before


def test_burgers_fft_counters_follow_the_kernel(monkeypatch):
    # the benchmark derives fft_count and fft_bytes_computed from
    # _tables["G"]; it must be the length apply_batch transforms at
    from fklab import dynamics_maps

    spans = load_spans()
    assert '_tables["G"]' in inspect.getsource(spans._burgers_sizes)
    sfft = dynamics_maps.sfft
    lengths, transforms = [], [0]

    def irfft(x, n, **kw):
        lengths.append(n)
        transforms[0] += x.shape[0]
        return sfft.irfft(x, n, **kw)

    def rfft(x, **kw):
        lengths.append(x.shape[-1])
        transforms[0] += x.shape[0]
        return sfft.rfft(x, **kw)

    bm = dynamics_maps.BurgersMap(nu=1.0, modes=64, dt=0.25)
    monkeypatch.setattr(dynamics_maps, "sfft", types.SimpleNamespace(irfft=irfft, rfft=rfft))
    U = np.zeros((bm._tables["chunk"] + 3, bm.dim))
    bm.apply_batch(U)
    sizes = spans._burgers_sizes(bm, U)
    assert bm._tables["G"] == 200
    assert set(lengths) == {200}
    assert transforms[0] == sizes["ffts"]
