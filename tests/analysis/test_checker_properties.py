"""Property: whatever the optimizer emits, the plan checker accepts.

The static checker must be *at least as permissive* as the executor: if
it flagged correct optimizer output as an error, ``validate_plans``
would reject healthy queries.  Randomized chain ontologies exercise the
rewriter → optimizer → checker pipeline end to end.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import wrapper_catalog
from repro.analysis.plan_checker import check_plan
from repro.relational.optimizer import PlanOptimizer
from repro.scenarios.synthetic import SYN, chain_mdm, versioned_concept_mdm


def assert_plan_clean(mdm, plan):
    findings, schema = check_plan(plan, wrapper_catalog(mdm))
    errors = [f for f in findings if f.severity.rank >= 2]
    assert errors == [], "\n".join(f.render() for f in errors)
    assert schema is not None


@given(
    n_concepts=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=25, deadline=None)
def test_optimized_chain_plans_pass_checker(n_concepts, seed):
    mdm, concepts, _, _ = chain_mdm(n_concepts, rows_per_concept=3, seed=seed)
    nodes = list(concepts) + [SYN[f"val{i}"] for i in range(n_concepts)]
    walk = mdm.walk_from_nodes(nodes)
    rewrite = mdm.rewriter.rewrite(walk)
    assert_plan_clean(mdm, rewrite.plan)

    optimizer = PlanOptimizer(wrapper_catalog(mdm), {})
    optimized, _ = optimizer.optimize(rewrite.plan)
    assert_plan_clean(mdm, optimized)


@given(
    n_versions=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_versioned_union_plans_pass_checker(n_versions, seed):
    """Multi-branch UCQs (one branch per wrapper release) stay clean."""
    mdm, concept = versioned_concept_mdm(n_versions, rows=3, seed=seed)
    walk = mdm.walk_from_nodes([concept, SYN.entityId, SYN.entityVal])
    rewrite = mdm.rewriter.rewrite(walk)
    assert rewrite.ucq_size == n_versions
    assert_plan_clean(mdm, rewrite.plan)

    optimizer = PlanOptimizer(wrapper_catalog(mdm), {})
    optimized, _ = optimizer.optimize(rewrite.plan)
    assert_plan_clean(mdm, optimized)


def test_checker_errors_iff_output_schema_raises():
    """Over the perturbed corpus catalogs, the checker and the algebra agree.

    The checker reports an MDM101–MDM104 error exactly when
    ``plan.output_schema(catalog)`` raises, and otherwise returns the
    same schema — so a plan the checker passes always derives.
    """
    from repro.relational.schema import SchemaError

    from .test_check_plan_corpus import scenario_cases

    checked = 0
    for case_id, plan, catalog in scenario_cases():
        findings, checked_schema = check_plan(plan, catalog)
        schema_errors = [
            f for f in findings if f.code in ("MDM101", "MDM102", "MDM103", "MDM104")
        ]
        try:
            derived = plan.output_schema(catalog)
        except SchemaError:
            derived = None
        assert bool(schema_errors) == (derived is None), case_id
        if derived is not None:
            assert checked_schema == derived, case_id
        checked += 1
    assert checked > 300
