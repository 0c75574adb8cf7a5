"""The benchmark's trace wraps named fklab attributes from outside the
package; renaming or removing one of them must fail here, not only in a
traced benchmark run."""

import importlib.util
import inspect
import pathlib

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


def test_burgers_span_sizes_read_the_map():
    # the benchmark sizes each Burgers span from _tables["G"] and
    # steps_per_unit; a traced run must find them on the map, and G is the
    # length of the grid the quadratic term is evaluated on
    from fklab.dynamics_maps import BurgersMap

    spans = load_spans()
    assert '_tables["G"]' in inspect.getsource(spans._burgers_sizes)
    bm = BurgersMap(nu=1.0, modes=64, dt=0.25)
    U = np.zeros((bm._tables["chunk"] + 3, bm.dim))
    bm.apply_batch(U)
    sizes = spans._burgers_sizes(bm, U)
    assert sizes["rows"] == U.shape[0]
    assert bm._tables["G"] == 3 * 64 + 1
    assert bm._tables["F"].shape[1:] == (64, (bm._tables["G"] + 1) // 2)
    assert bm._tables["chunk"] % 8 == 0
