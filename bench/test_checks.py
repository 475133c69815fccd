"""The answer checks must catch wrong answers.

For each workload, pairloc answers seed 1's batch in this process; the
checks must then fail only the known fault, and must fail each answer that
is deliberately made wrong here.

    python3 -m pytest bench/test_checks.py    (or: python3 bench/test_checks.py)
"""

from __future__ import annotations

import copy
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402

KNOWN = {"polynomial": ["top-nonvanishing-local"], "monomial": [], "depth": []}


def _flip(answer):
    return not answer


def _drop_first(answer):
    return answer[1:]


def _plus_one(answer):
    return answer + 1


def _drop_generator(answer):
    return {**answer, "L": answer["L"][1:]}


def _deeper(answer):
    return {**answer, "value": answer["value"] + 1}


def _betti_value(answer):
    answer = copy.deepcopy(answer)
    answer[-1][2] += 1
    return answer


# (query id, corruption): each yields an answer that is wrong.
CORRUPTIONS = {
    "polynomial": [
        ("cyclic4-32003", _drop_first),
        ("ideal0-member-in", _flip),
        ("ideal1-member-out", _flip),
        ("ideal2-intersect", _drop_first),
        ("ideal3-colon", _drop_first),
        ("ideal4-saturate", _drop_first),
        ("ideal5-radical", _flip),
        ("ideal6-dim", _plus_one),
        ("shifted0", _flip),
    ],
    "monomial": [
        ("ctx0-gamma", _drop_generator),
        ("ctx1-gamma-member2", _flip),
        ("ctx2-is-torsion", _flip),
        ("ctx5-ass-gamma", _drop_first),
        ("ctx3-w-xy", _flip),
        ("ctx4-wtilde-z", _flip),
        ("ctx6-lh", _flip),
        ("ctx7-ara", _plus_one),
        ("ctx8-pair-depth", _deeper),
    ],
    "depth": [
        ("hochster0", _betti_value),
        ("hochster20", _betti_value),
        ("quotient0-depth", _plus_one),
        ("quotient5-face-xyzw", _plus_one),
    ],
}


def answers(workload, seed=1):
    pl = worker.import_pairloc()
    queries = inputs.queries(workload, seed)
    _, _, got = worker.run_pass(pl, worker.Builder(pl), queries)
    return queries, got


def _check_workload(workload):
    queries, got = answers(workload)
    assert checks.failures(workload, queries, got) == KNOWN[workload]
    index = {q["id"]: k for k, q in enumerate(queries)}
    for qid, corrupt in CORRUPTIONS[workload]:
        bad = list(got)
        bad[index[qid]] = corrupt(got[index[qid]])
        assert bad[index[qid]] != got[index[qid]], qid
        failed = checks.failures(workload, queries, bad)
        assert sorted(failed) == sorted(KNOWN[workload] + [qid]), (qid, failed)


def test_polynomial_checks():
    _check_workload("polynomial")


def test_monomial_checks():
    _check_workload("monomial")


def test_depth_checks():
    _check_workload("depth")


if __name__ == "__main__":
    for name in inputs.WORKLOADS:
        _check_workload(name)
        print(f"{name}: checks catch every corrupted answer")
