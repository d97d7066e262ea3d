"""The schema sweep with one `forces` call per (node, assignment) over
eagerly built formula lists, kept as an oracle for
`kripkelab.schema.check_schema`, which forces each template once per
assignment over all nodes and reads the stream lazily.
"""

from __future__ import annotations

import functools
import itertools

from kripkelab.formula import (
    enumerate_delta0,
    enumerate_pi,
    enumerate_sigma,
    params_of,
    parse,
)
from kripkelab.schema import (
    AXIOM_IDS,
    CheckReport,
    DesignatedInstance,
    SchemaId,
    _SHAPES,
    _counterexample,
    _scope,
    _strictly_pi,
    build_template,
)
from kripkelab.semantics import forces, universe_at

ENUMERATORS = {
    SchemaId.DELTA0_COMPREHENSION: enumerate_delta0,
    SchemaId.DELTA0_BOUNDING: enumerate_delta0,
    SchemaId.DELTA0_UNIFORMITY: enumerate_delta0,
    SchemaId.PI_UNIFORMITY: _strictly_pi,
    SchemaId.SIGMA_REFLECTION: enumerate_sigma,
    SchemaId.PI_PERSISTENCE: enumerate_pi,
    SchemaId.EPSILON_INDUCTION: enumerate_delta0,
    SchemaId.PI2_REFLECTION: enumerate_delta0,
}


# the depth-2 lists hold 117,419 formulas; callers that sweep one schema
# and bounds over several structures in a row build each list once
@functools.lru_cache(maxsize=1)
def _formulas(enum, depth, variables, params):
    return enum(depth, variables, params)


def _sweep_formulas(schema, bounds):
    if schema in AXIOM_IDS:
        return [None]
    shape = _SHAPES[schema]
    params = ("p",) if bounds.max_params >= shape.p_from else ()
    return _formulas(ENUMERATORS[schema], bounds.formula_depth, shape.variables, params)


def _assignments(s, sigma, schema, phi):
    names = sorted(params_of(phi)) if phi is not None else []
    if phi is not None and _SHAPES[schema].takes_a and "A" not in names:
        names = ["A"] + names
    if not names:
        yield None
        return
    for values in itertools.product(universe_at(s, sigma), repeat=len(names)):
        yield dict(zip(names, values))


def _force(s, schema, template, phi, assignment, sigma):
    if forces(s, sigma, template, env=None, extra_names=assignment):
        return None
    return _counterexample(schema, phi, assignment, sigma)


def reference_check(s, schema, bounds):
    nodes = _scope(s, bounds)
    instances = designated = 0
    failure, note = None, ""
    for inst in s.notes:
        if not isinstance(inst, DesignatedInstance) or inst.schema is not schema:
            continue
        designated += 1
        phi = parse(inst.phi) if inst.phi is not None else None
        assignment = {k: s.names[v] for k, v in inst.params} or None
        template = build_template(schema, phi)
        for sigma in (inst.node,) if inst.node is not None else nodes:
            instances += 1
            cex = _force(s, schema, template, phi, assignment, sigma)
            if cex is not None and failure is None:
                failure, note = cex, inst.label or "designated instance"

    formulas = _sweep_formulas(schema, bounds)
    for phi in formulas:
        if failure is not None:
            break
        template = build_template(schema, phi)
        for sigma in nodes:
            if failure is not None:
                break
            for assignment in _assignments(s, sigma, schema, phi):
                instances += 1
                failure = _force(s, schema, template, phi, assignment, sigma)
                if failure is not None:
                    break
    return CheckReport(
        schema=schema,
        holds=failure is None,
        counterexample=failure,
        note=note if failure is not None else "",
        stats={
            "formulas": len(formulas),
            "nodes": len(nodes),
            "instances": instances,
            "designated": designated,
        },
    )
