"""The benchmark's tracer wraps package attributes by name; a source change
that deletes or renames one must fail here, not only in ``bench/tests``.

``bench/tracer.py`` is loaded read-only from its file, without putting
``bench/`` on the import path.
"""
import inspect

from conftest import load_bench_module

import maxstable.cli  # noqa: F401  (loads every module of the package)
import maxstable.fdd
import maxstable.pointproc
import maxstable.simulator


def test_every_traced_attribute_exists_on_its_owner():
    tracer = load_bench_module("tracer")
    missing = [
        (owner, attr)
        for layer in tracer.LAYERS
        for owner, attr in layer.targets
        if attr not in vars(tracer._resolve(owner))
    ]
    assert missing == []


def test_simulator_reexports_the_cascade_the_tracer_wraps():
    assert maxstable.simulator.frechet_cascade is maxstable.pointproc.frechet_cascade


def test_exponent_mc_takes_query_and_mc_n_where_the_tracer_reads_them():
    # the tracer's draw counter reads the query and mc_n from positional
    # arguments 2 and 3 of exponent_mc
    params = list(inspect.signature(maxstable.fdd.exponent_mc).parameters)
    assert params[2:4] == ["query", "mc_n"]
