"""The benchmark's trace wraps named fklab attributes from outside the
package; renaming or removing one of them must fail here, not only in a
traced benchmark run."""

import importlib.util
import pathlib

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
