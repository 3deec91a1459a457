"""Unit + property tests for unification."""

from hypothesis import given, strategies as st

from repro.query import ast
from repro.query.unify import is_ground, occurs, rename_rule, resolve, unify, walk


def _var(name):
    return ast.Var(name)


def test_const_unifies_with_equal_const():
    assert unify(ast.Const(1), ast.Const(1), {}) == {}
    assert unify(ast.Const("a"), ast.Const("a"), {}) == {}


def test_const_mismatch_fails():
    assert unify(ast.Const(1), ast.Const(2), {}) is None


def test_atom_does_not_unify_with_string():
    assert unify(ast.Const(ast.sym("foo")), ast.Const("foo"), {}) is None


def test_bool_does_not_unify_with_int():
    assert unify(ast.Const(True), ast.Const(1), {}) is None


def test_int_unifies_with_equal_float():
    assert unify(ast.Const(1), ast.Const(1.0), {}) is not None


def test_var_binds_to_const():
    subst = unify(_var("X"), ast.Const(5), {})
    assert walk(_var("X"), subst) == ast.Const(5)


def test_var_to_var_aliasing():
    subst = unify(_var("X"), _var("Y"), {})
    subst = unify(_var("Y"), ast.Const(3), subst)
    assert resolve(_var("X"), subst) == ast.Const(3)


def test_same_var_unifies_without_binding():
    assert unify(_var("X"), _var("X"), {}) == {}


def test_struct_unification_binds_arguments():
    left = ast.Struct("f", (_var("X"), ast.Const(2)))
    right = ast.Struct("f", (ast.Const(1), _var("Y")))
    subst = unify(left, right, {})
    assert resolve(_var("X"), subst) == ast.Const(1)
    assert resolve(_var("Y"), subst) == ast.Const(2)


def test_functor_and_arity_must_match():
    assert unify(ast.Struct("f", (ast.Const(1),)), ast.Struct("g", (ast.Const(1),)), {}) is None
    assert unify(ast.Struct("f", (ast.Const(1),)), ast.Struct("f", ()), {}) is None


def test_substitution_is_not_mutated():
    base = unify(_var("X"), ast.Const(1), {})
    result = unify(_var("Y"), ast.Const(2), base)
    assert _var("Y") not in base
    assert _var("Y") in result


def test_partial_failure_leaves_input_subst_valid():
    left = ast.Struct("f", (_var("X"), ast.Const(1)))
    right = ast.Struct("f", (ast.Const(9), ast.Const(2)))
    before = {}
    assert unify(left, right, before) is None
    assert before == {}


def test_occurs_check_detects_cycle():
    term = ast.Struct("f", (_var("X"),))
    assert occurs(_var("X"), term, {})
    assert unify(_var("X"), term, {}) is None


def test_is_ground():
    assert is_ground(ast.Const(1), {})
    assert not is_ground(_var("X"), {})
    subst = {_var("X"): ast.Const(1)}
    assert is_ground(ast.Struct("f", (_var("X"),)), subst)


def test_rename_rule_standardizes_apart():
    rule = ast.Rule(
        head=ast.Struct("p", (_var("X"),)),
        body=(ast.Struct("q", (_var("X"), _var("Y"))),),
    )
    renamed_a = rename_rule(rule)
    renamed_b = rename_rule(rule)
    # fresh everywhere, but consistent within one renaming
    assert renamed_a.head.args[0] == renamed_a.body[0].args[0]
    assert renamed_a.head.args[0] != rule.head.args[0]
    assert renamed_a.head.args[0] != renamed_b.head.args[0]


def test_list_round_trip():
    items = [ast.Const(1), ast.Const("two"), ast.Const(3.0)]
    assert list(ast.iter_list(ast.list_term(items))) == items
    assert ast.is_list(ast.list_term(items))
    assert not ast.is_list(_var("X"))


# -- properties --------------------------------------------------------------

_consts = st.one_of(
    st.integers(-5, 5),
    st.sampled_from(["a", "b"]),
    st.booleans(),
)


def _terms():
    return st.recursive(
        st.one_of(
            _consts.map(ast.Const),
            st.sampled_from(["X", "Y", "Z"]).map(ast.Var),
        ),
        lambda children: st.tuples(
            st.sampled_from(["f", "g"]),
            st.lists(children, min_size=1, max_size=2),
        ).map(lambda pair: ast.Struct(pair[0], tuple(pair[1]))),
        max_leaves=6,
    )


@given(_terms())
def test_unify_reflexive(term):
    assert unify(term, term, {}) is not None


@given(_terms(), _terms())
def test_unify_symmetric(left, right):
    forward = unify(left, right, {})
    backward = unify(right, left, {})
    assert (forward is None) == (backward is None)


def test_unify_cyclic_pair_terminates():
    """Regression: with the occurs check off, ``Z`` was bound to ``f(Z)``
    and the second argument pair then unified the cycle with itself,
    recursing without end.  ``test_unify_symmetric`` can draw this pair."""
    z = _var("Z")
    f_z = ast.Struct("f", (z,))
    left = ast.Struct("f", (f_z, f_z))
    right = ast.Struct("f", (z, f_z))
    assert unify(left, right, {}) is None
    assert unify(right, left, {}) is None


@given(_terms(), _terms())
def test_unifier_makes_terms_equal(left, right):
    subst = unify(left, right, {})
    if subst is not None:
        assert resolve(left, subst) == resolve(right, subst)
