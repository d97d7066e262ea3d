"""The schema sweep with one `forces` call per (node, assignment) over
eagerly built formula lists, kept as an oracle for
`kripkelab.schema.check_schema`, which forces each template once over all
assignments at all nodes and reads the stream lazily.
"""

from __future__ import annotations

import functools
import itertools

from kripkelab.formula import (
    Forall,
    enumerate_delta0,
    enumerate_pi,
    enumerate_sigma,
    formula_stream,
    params_of,
    parse,
)
from kripkelab.schema import (
    CheckReport,
    DesignatedInstance,
    SchemaId,
    _counterexample,
    _scope,
    build_template,
)
from kripkelab.semantics import forces, universe_at


def strictly_pi(max_depth, variables, params):
    """Pi uniformity's sweep: `enumerate_pi` without the bounded formulas,
    which are Delta0 uniformity's."""
    return list(formula_stream(max_depth, variables, params, (Forall,))[1])


# per schema with a formula slot: its enumerator, its variables, and the
# max_params at which #p joins the swept formulas
ENUMERATORS = {
    SchemaId.DELTA0_COMPREHENSION: (enumerate_delta0, ("x",), 2),
    SchemaId.DELTA0_BOUNDING: (enumerate_delta0, ("x", "y"), 2),
    SchemaId.DELTA0_UNIFORMITY: (enumerate_delta0, ("x", "y"), 2),
    SchemaId.PI_UNIFORMITY: (strictly_pi, ("x", "y"), 2),
    SchemaId.SIGMA_REFLECTION: (enumerate_sigma, (), 1),
    SchemaId.PI_PERSISTENCE: (enumerate_pi, (), 1),
    SchemaId.EPSILON_INDUCTION: (enumerate_delta0, ("a",), 2),
    SchemaId.PI2_REFLECTION: (enumerate_delta0, ("x", "y"), 2),
}
# the schemas whose templates read the parameter #A
READS_A = {
    SchemaId.DELTA0_COMPREHENSION,
    SchemaId.DELTA0_BOUNDING,
    SchemaId.DELTA0_UNIFORMITY,
    SchemaId.PI_UNIFORMITY,
}


# the depth-2 lists hold 117,419 formulas; callers that sweep one schema
# and bounds over several structures in a row build each list once
@functools.lru_cache(maxsize=1)
def _formulas(enum, depth, variables, params):
    return enum(depth, variables, params)


def _sweep_formulas(schema, bounds):
    if schema not in ENUMERATORS:
        return [None]
    enum, variables, p_from = ENUMERATORS[schema]
    params = ("p",) if bounds.max_params >= p_from else ()
    return _formulas(enum, bounds.formula_depth, variables, params)


def _assignments(s, sigma, schema, phi):
    names = sorted(params_of(phi)) if phi is not None else []
    if phi is not None and schema in READS_A and "A" not in names:
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
