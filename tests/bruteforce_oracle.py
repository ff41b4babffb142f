"""Exhaustive answer-set oracle for small ground programs.

Independent of the solver module: candidates are drawn from the operator
closure of the program weights and checked directly against the
supportedness equations, the three-branch satisfaction rule, consistency,
and knowledge-minimality among supported models of the candidate's own
frozen-naf program.  Shares only the connectives and measures with the
implementation under test.

:func:`joint_solve` is the exception: a reference for the solver's own naf
search, it enumerates the whole joint guess space with the solver's
fixpoint engine, as ``solve`` did before it searched one frozen component
at a time.
"""

import itertools

from fuzzyasp import (
    TRUE,
    UNKNOWN,
    AggregationTie,
    FuzzyTruth,
    Interpretation,
    Naf,
    conj,
    disj,
    equal,
    kagg,
    naf,
    negate,
    truth_degree,
    uncertainty_degree,
)
from fuzzyasp import solver
from fuzzyasp.oracle import closure_enumerate

EPS = 1e-9

_k_cache: dict = {}
_t_cache: dict = {}


def _k(v):
    r = _k_cache.get(v)
    if r is None:
        r = _k_cache[v] = uncertainty_degree(v)
    return r


def _t(v):
    r = _t_cache.get(v)
    if r is None:
        r = _t_cache[v] = truth_degree(v)
    return r


def weight_closure(gp, depth=3):
    seeds = {TRUE, UNKNOWN}
    for rule in gp.rules:
        seeds.add(rule.weight)
        for item in rule.body:
            if isinstance(item, FuzzyTruth):
                seeds.add(item)
    return closure_enumerate(seeds, depth)


class BruteForce:
    def __init__(self, gp):
        self.lits = list(gp.literals)
        index = {l: i for i, l in enumerate(self.lits)}
        self.naf_idx = []
        for rule in gp.rules:
            for b in rule.naf_body:
                if index[b] not in self.naf_idx:
                    self.naf_idx.append(index[b])
        self.rules = []
        self.heads: dict = {}
        for rule in gp.rules:
            items = []
            for item in rule.body:
                if isinstance(item, FuzzyTruth):
                    items.append(("v", item))
                elif isinstance(item, Naf):
                    items.append(("n", index[item.literal]))
                else:
                    items.append(("l", index[item]))
            self.heads.setdefault(index[rule.head], []).append(len(self.rules))
            self.rules.append((index[rule.head], items, rule.weight))
        self.comp = {}
        for head_idx in self.heads:
            c = self.lits[head_idx].complement()
            if c in index and index[c] in self.heads:
                self.comp[head_idx] = index[c]
        self.pairs = [
            (index[l], index[l.complement()])
            for l in self.lits
            if not l.negated and l.complement() in index
        ]

    def _body(self, cand, rule_pos, frozen):
        _, items, weight = self.rules[rule_pos]
        acc = None
        for kind, payload in items:
            if kind == "v":
                v = payload
            elif kind == "l":
                v = cand[payload]
            else:
                v = frozen[payload]
            acc = v if acc is None else conj(acc, v)
        if acc is None:
            acc = TRUE
        return conj(acc, weight)

    def _combined(self, cand, head_idx, frozen):
        acc = None
        for pos in self.heads[head_idx]:
            v = self._body(cand, pos, frozen)
            acc = v if acc is None else disj(acc, v)
        return acc

    def _supported(self, cand, frozen):
        for head_idx in self.heads:
            value = self._combined(cand, head_idx, frozen)
            comp_idx = self.comp.get(head_idx)
            if comp_idx is not None:
                try:
                    value = kagg(
                        value, negate(self._combined(cand, comp_idx, frozen)), EPS
                    )
                except AggregationTie:
                    return False
            if not equal(cand[head_idx], value, EPS):
                return False
        return True

    def _model(self, cand, frozen):
        for pos, (head_idx, _, _) in enumerate(self.rules):
            head = cand[head_idx]
            body = self._body(cand, pos, frozen)
            if equal(head, body, EPS):
                continue
            if _k(head) < _k(body) - EPS:
                continue
            if _t(head) > _t(body) + EPS:
                continue
            return False
        return True

    def _consistent(self, cand):
        for pi, ni in self.pairs:
            if abs(_k(cand[pi]) - _k(cand[ni])) <= EPS and (
                abs(_t(cand[pi]) - (1.0 - _t(cand[ni]))) > EPS
            ):
                return False
        return True

    def answer_sets(self, closure):
        """Everything that is a k-minimal supported model of its own reduct."""
        n = len(self.lits)
        sm_cache: dict = {}
        found = []
        for cand in itertools.product(closure, repeat=n):
            frozen = {i: naf(cand[i]) for i in self.naf_idx}
            if not self._supported(cand, frozen):
                continue
            if not self._consistent(cand):
                continue
            if not self._model(cand, frozen):
                continue
            key = tuple(round(frozen[i].b, 9) for i in self.naf_idx)
            if key not in sm_cache:
                sm_cache[key] = [
                    tuple(_k(v) for v in other)
                    for other in itertools.product(closure, repeat=n)
                    if self._supported(other, frozen) and self._model(other, frozen)
                ]
            kvec = tuple(_k(v) for v in cand)
            minimal = not any(
                all(wk[i] >= kvec[i] - EPS for i in range(n))
                and any(wk[i] > kvec[i] + EPS for i in range(n))
                for wk in sm_cache[key]
            )
            if minimal:
                found.append(Interpretation(dict(zip(self.lits, cand))))
        return found


def pairwise_distinct(found, eps=EPS):
    """``solve``'s candidate dedup rule, comparing each fixpoint with every kept one.

    ``found`` holds ``(fixpoint, frozen)`` pairs; a fixpoint is kept unless
    ``interpretations_equal`` puts it within ``eps`` of one kept before it,
    and each kept one gets ``_frozen_at = frozen``.
    """
    candidates = []
    for fix, frozen in found:
        if not any(solver.interpretations_equal(fix, c, eps) for c in candidates):
            fix._frozen_at = frozen
            candidates.append(fix)
    return candidates


def joint_guess_domain(gp, depth, slots, max_guesses):
    """``solver._naf_guess_domain``, with the joint loop's guess limit.

    GuessLimitExceeded when the ``len(domain) ** slots`` joint guesses
    exceed ``max_guesses`` at the depth chosen.
    """
    domain, depth = solver._naf_guess_domain(gp, depth, slots, max_guesses)
    guesses = len(domain) ** slots
    if guesses > max_guesses:
        raise solver.GuessLimitExceeded(f"{guesses} naf guesses exceed max_guesses={max_guesses}")
    return domain, depth


def joint_solve(gp, *, eps=EPS, max_iter=solver.DEFAULT_MAX_ITER, guess_depth=3,
                max_guesses=100_000):
    """``solve``'s candidates and guess depth, from the joint guess loop.

    Every guess of ``itertools.product(domain, repeat=len(gp.naf_ids))``
    gets its own whole-program frozen fixpoint.  Verification recomputes
    every reduct fixpoint instead of reusing the candidate's.
    """
    results, found = [], []
    try:
        found.append(solver._fixpoint(gp, eps, max_iter))
    except solver.Inconsistent as exc:
        results.append(solver.CandidateResult(None, solver.Status.INCONSISTENT, exc.atom))
    except solver.NonConvergent:
        results.append(solver.CandidateResult(None, solver.Status.NON_CONVERGENT, None))
    depth = None
    if any(c.naf_inside for c in gp.components):
        domain, depth = joint_guess_domain(gp, guess_depth, len(gp.naf_ids), max_guesses)
        for combo in itertools.product(domain, repeat=len(gp.naf_ids)):
            guess = dict(zip(gp.naf_ids, combo))
            try:
                fix = solver.kmin_supported_model(
                    gp, eps=eps, max_iter=max_iter, naf_values=guess
                )
            except (solver.Inconsistent, solver.NonConvergent, solver.MonotonicityError):
                continue
            if all(equal(naf(fix.values[b]), v, eps) for b, v in guess.items()):
                found.append(fix)
    candidates = pairwise_distinct([(fix, None) for fix in found], eps)
    results += [
        solver.verify_answer_set(gp, c, eps=eps, max_iter=max_iter) for c in candidates
    ]
    return results, depth
