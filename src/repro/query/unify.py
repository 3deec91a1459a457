"""Unification and substitutions.

Substitutions are immutable-by-convention dicts from :class:`Var` to
terms; :func:`unify` returns a new dict (sharing structure) or ``None``
on failure.  The engine threads substitutions through backtracking, so
never mutating a substitution another choice point holds is essential.
"""

from __future__ import annotations

from repro.query import ast


def walk(term, subst: dict):
    """Dereference a term through the substitution (one level)."""
    while isinstance(term, ast.Var):
        bound = subst.get(term)
        if bound is None:
            return term
        term = bound
    return term


def resolve(term, subst: dict):
    """Fully substitute: replace every bound variable, recursively."""
    term = walk(term, subst)
    if isinstance(term, ast.Struct) and term.args:
        return ast.Struct(
            term.functor, tuple(resolve(arg, subst) for arg in term.args)
        )
    return term


def is_ground(term, subst: dict) -> bool:
    """Whether the term contains no unbound variables."""
    term = walk(term, subst)
    if isinstance(term, ast.Var):
        return False
    if isinstance(term, ast.Struct):
        return all(is_ground(arg, subst) for arg in term.args)
    return True


def occurs(var: ast.Var, term, subst: dict) -> bool:
    """Occurs check: does ``var`` appear in ``term``?"""
    term = walk(term, subst)
    if term == var:
        return True
    if isinstance(term, ast.Struct):
        return any(occurs(var, arg, subst) for arg in term.args)
    return False


def unify(term_a, term_b, subst: dict) -> dict | None:
    """Most general unifier extending ``subst``, or None.

    Constants unify by Python equality *and* type compatibility: the
    atom ``foo`` (a :class:`~repro.query.ast.Sym`) does not unify with
    the string ``"foo"``, but ``1`` and ``1.0`` do unify (numeric
    comparison), matching how LabBase data is queried.  A variable never
    binds to a term that contains it (the occurs check), so every
    substitution returned is acyclic and :func:`resolve` terminates on it.
    """
    term_a = walk(term_a, subst)
    term_b = walk(term_b, subst)

    # Same unbound variable: already unified (binding X to X would make
    # walk() loop forever).
    if isinstance(term_a, ast.Var) and term_a == term_b:
        return subst

    if isinstance(term_a, ast.Var):
        if occurs(term_a, term_b, subst):
            return None
        new = dict(subst)
        new[term_a] = term_b
        return new
    if isinstance(term_b, ast.Var):
        if occurs(term_b, term_a, subst):
            return None
        new = dict(subst)
        new[term_b] = term_a
        return new

    if isinstance(term_a, ast.Const) and isinstance(term_b, ast.Const):
        if _const_equal(term_a.value, term_b.value):
            return subst
        return None

    if isinstance(term_a, ast.Struct) and isinstance(term_b, ast.Struct):
        if term_a.functor != term_b.functor or term_a.arity != term_b.arity:
            return None
        for arg_a, arg_b in zip(term_a.args, term_b.args):
            subst = unify(arg_a, arg_b, subst)
            if subst is None:
                return None
        return subst

    return None


def _const_equal(value_a: object, value_b: object) -> bool:
    # Sym vs plain str: distinct (atoms are not strings).
    if isinstance(value_a, ast.Sym) != isinstance(value_b, ast.Sym):
        return False
    # bool is an int subclass in Python; keep true/1 distinct.
    if isinstance(value_a, bool) != isinstance(value_b, bool):
        return False
    return value_a == value_b


_RENAME_COUNTER = [0]


def rename_rule(rule: ast.Rule) -> ast.Rule:
    """Fresh variables for a rule (standardizing apart)."""
    _RENAME_COUNTER[0] += 1
    ordinal = _RENAME_COUNTER[0]
    mapping: dict[ast.Var, ast.Var] = {}

    def rename(term):
        if isinstance(term, ast.Var):
            fresh = mapping.get(term)
            if fresh is None:
                fresh = ast.Var(term.name, ordinal)
                mapping[term] = fresh
            return fresh
        if isinstance(term, ast.Struct) and term.args:
            return ast.Struct(term.functor, tuple(rename(arg) for arg in term.args))
        if isinstance(term, ast.Neg):
            return ast.Neg(rename(term.goal))
        return term

    head = rename(rule.head)
    body = tuple(rename(goal) for goal in rule.body)
    return ast.Rule(head=head, body=body)
