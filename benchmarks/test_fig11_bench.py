"""Benchmark: Fig. 11 — deadlock-detection threshold sweep."""

from repro.experiments import fig11_tdd_sweep as exp

from benchmarks.conftest import run_once, save_report


def test_fig11_tdd_sweep(benchmark):
    params = exp.Fig11Params.quick()
    result = run_once(benchmark, lambda: exp.run(params))
    save_report("fig11", exp.report(result))
    ts = sorted(params.t_dd_values)
    for scheme in params.schemes:
        # Paper's shape: probe count declines steeply with t_DD...
        probes = [result.probes[(scheme, t)] for t in ts]
        assert probes[0] > probes[-1], scheme
        for t in ts:
            # ...flits dominate link usage at every threshold (paper: > 93%)...
            assert result.link_share[(scheme, t, "flit")] > 0.80, (scheme, t)
            # ...and the non-probe special messages stay a small fraction.
            others = (
                result.link_share[(scheme, t, "disable")]
                + result.link_share[(scheme, t, "enable")]
                + result.link_share[(scheme, t, "check_probe")]
            )
            assert others < 0.05, (scheme, t)
