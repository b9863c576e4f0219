"""The three benchmark workloads.

Each workload builds its inputs from a seed (`build`), runs one timed pass
over them (`run_pass`), and checks the pass's outputs against values the
harness computes on its own, outside the timed region (`check`). A pass
records per-operation times; an operation that raises, or whose output
fails a check, counts as failed. A light pass (`full=False`) skips the
workload's `long_ops`, so that its short operations get more samples in a
run than the one long operation that dominates a full pass.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import io
import json
import os
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from pathweave import analysis, cli, expr, rewrite
from pathweave.expr import format_expr, node_count
from pathweave.tensor import MultiRelTensor

import exprgen

# Library calls go through module attributes, never names imported from
# them, so that the traced run's wrappers see every call. The package
# re-exports rebind `pathweave.evaluate` to the function, hence the lookup.
evaluation = importlib.import_module("pathweave.evaluate")

COAUTHOR = "A[authored] . A[authored]' & not(I)"

# The derivation sources and targets of acceptance criteria 02-04, and the
# criterion-05 pattern-match query.
SELF_LOOP_SRC = (
    "A[authored] . A[cites] . A[authored]' "
    "& not(clip(A[authored] . A[authored]' & not(I))) & not(I)"
)
SELF_LOOP_TARGET = (
    "A[authored] . A[cites] . A[authored]' & not(clip(A[authored] . A[authored]')) & not(I)"
)
JOURNAL_SRC = (
    "(vout(C(socsci) & A[category]) & A[contains]) . A[cites] "
    ". (A[contains]' & vin(R(socsci) & A[category]'))"
)
JOURNAL_TARGET = (
    "(vout(C(socsci) & A[category]) & A[contains]) . A[cites] "
    ". (vout(C(socsci) & A[category]) & A[contains])'"
)
MERGE_SRC = (
    "0.6 * (A[authored] . A[authored]' & not(I)) + "
    "0.4 * (A[developed] . A[developed]' & not(I))"
)
MERGE_TARGET = (
    "(0.6 * (A[authored] . A[authored]') + 0.4 * (A[developed] . A[developed]')) & not(I)"
)
MARKO_QUERY = (
    "clip( ((C(marko) & A[authored]') . A[authored] & I)"
    " . (A[cites] & not(vout(C(marko) & A[authored]')'))"
    " & vin(R(joi) & A[contains]) )"
)


# On a shared machine the same code can run at a different speed from one
# second to the next (on the 2-core VM this was built on, an interpreted
# loop varied by up to 1.5x), and no number of passes in a 36 s run
# averages that out. So the harness times a fixed calibration job
# between operations (at most every CALIBRATE_EVERY_S) and scales each
# operation's time by CALIBRATION_REF_S over the calibration times just
# before and after it: the reported seconds are seconds at the speed the
# calibration job runs in CALIBRATION_REF_S.
CALIBRATE_EVERY_S = 0.25
CALIBRATION_REF_S = 0.007


def calibration():
    """Fixed work that tracks the machine's current speed: an interpreted
    loop, dict updates and numpy arithmetic. Returns its wall time."""
    start = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i % 7
    counts = {}
    for i in range(10_000):
        counts[i % 997] = counts.get(i % 997, 0) + 1
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(4):
        a = np.sqrt(a * 1.0001 + 1.0)
    return perf_counter() - start


class PassResult:
    """Times and outputs of one pass. Creating one runs the first
    calibration. After `finish`, `ops` maps each timed operation to (stage,
    seconds at reference speed); every operation of stage "eval" takes one
    expression from text to path matrix."""

    def __init__(self, page=0):
        self.page = page
        self.samples: list[tuple[str, str, float, float]] = []
        self.marks = [(perf_counter(), calibration())]
        self.ops: dict[str, tuple[str, float]] = {}
        self.outputs: dict = {}
        self.attempted = 0
        self.failed_ops: dict[str, str] = {}
        self.bytes_out = 0

    def add(self, op, stage, start):
        """Record an operation that ran from `start` until now."""
        end = perf_counter()
        self.attempted += 1
        self.samples.append((op, stage, start, end))
        if end - self.marks[-1][0] > CALIBRATE_EVERY_S:
            self.marks.append((perf_counter(), calibration()))

    def finish(self):
        self.marks.append((perf_counter(), calibration()))
        times = [t for t, _ in self.marks]
        for op, stage, start, end in self.samples:
            before = self.marks[bisect.bisect_right(times, start) - 1][1]
            after = self.marks[bisect.bisect_left(times, end)][1]
            self.ops[op] = (stage, (end - start) * CALIBRATION_REF_S * 2 / (before + after))

    def fail(self, op, why):
        self.failed_ops.setdefault(op, why)


def _run_op(r, op, stage, fn, *args, **kwargs):
    """Time one library call as `op` of `stage`; a raised exception fails it."""
    start = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as err:  # a failed operation is counted, not fatal
        r.fail(op, f"{type(err).__name__}: {err}")
        return None
    finally:
        r.add(op, stage, start)
    return out


# -- coauthor-1e5 ---------------------------------------------------------------


class Coauthor:
    """Coauthorship over a random bipartite authored slice, then the four
    analyses on the weighted result."""

    name = "coauthor-1e5"
    long_ops = ("assort_categorical",)
    pages = 1
    categories = 8
    decay = 0.8
    steps = 3

    def build(self, seed, smoke, work_dir):
        side, m = (1_000, 10_000) if smoke else (50_000, 500_000)
        n = 2 * side
        rng = np.random.default_rng(seed)
        tails = rng.integers(0, side, size=m)
        heads = side + rng.integers(0, side, size=m)
        tensor = MultiRelTensor.from_edges(n, {"authored": (tails, heads)})
        codes = rng.integers(0, self.categories, size=n)
        seeds = np.zeros(n)
        seeds[rng.choice(side, size=10, replace=False)] = 1.0
        return SimpleNamespace(
            n=n,
            tails=tails,
            heads=heads,
            tensor=tensor,
            values=rng.random(n),
            codes=codes,
            labels=[f"c{c}" for c in codes.tolist()],
            seeds=seeds,
        )

    def run_pass(self, x, r, full=True):
        z = _run_op(r, "eval", "eval", lambda: evaluation.evaluate(expr.parse(COAUTHOR), x.tensor))
        if z is None:
            return
        r.outputs["z"] = z
        r.outputs["pagerank"] = _run_op(r, "pagerank", "pagerank", analysis.pagerank, z)
        r.outputs["spread"] = _run_op(
            r, "spread", "spread", analysis.spreading_activation, z, x.seeds, self.steps, self.decay
        )
        r.outputs["assort_scalar"] = _run_op(
            r, "assort_scalar", "assort", analysis.assortativity_scalar, z, x.values
        )
        if full:
            r.outputs["assort_categorical"] = _run_op(
                r, "assort_categorical", "assort", analysis.assortativity_categorical, z, x.labels
            )

    def check(self, x, r):
        z = r.outputs.get("z")
        if z is None:
            return
        if not hasattr(x, "expected_weight"):
            # Distinct authors per article; each ordered pair of distinct
            # coauthors of an article is one path.
            keys = np.unique(x.tails * x.n + x.heads)
            d = np.bincount(keys % x.n, minlength=x.n).astype(np.int64)
            x.expected_weight = int((d * (d - 1)).sum())
        mat = z.mat
        if z.complement or mat.diagonal().any() or int(mat.sum()) != x.expected_weight:
            r.fail("eval", "coauthorship matrix: nonzero diagonal or wrong total weight")
            return
        w = sp.csr_array(mat.astype(np.float64))
        out = np.asarray(w.sum(axis=1)).ravel()
        dangling = out == 0
        p = sp.csr_array(sp.diags_array(np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out))) @ w)
        pi = r.outputs["pagerank"]
        if pi is not None:
            delta = analysis.PageRankConfig().delta
            step = delta * (pi @ p) + (delta * pi[dangling].sum() + 1.0 - delta) / x.n
            if abs(pi.sum() - 1.0) > 1e-9 or np.linalg.norm(step - pi) > 1e-8:
                r.fail("pagerank", "not a unit-sum fixed point of the walk matrix")
        flow = r.outputs["spread"]
        if flow is not None:
            v = x.seeds.copy()
            want = v.copy()
            for _ in range(self.steps):
                v = self.decay * (v @ p)
                want += v
            if not np.allclose(flow, want, rtol=1e-9, atol=1e-12):
                r.fail("spread", "flow differs from the harness's propagation")
        coo = mat.tocoo()
        rows, cols, wt = coo.row, coo.col, coo.data.astype(np.float64)
        total = wt.sum()
        got = r.outputs["assort_scalar"]
        if got is not None:
            c = np.cov(x.values[rows], x.values[cols], aweights=wt)
            want = c[0, 1] / np.sqrt(c[0, 0] * c[1, 1])
            if abs(got - want) > 1e-9:
                r.fail("assort_scalar", f"r = {got!r}, harness {want!r}")
        got = r.outputs.get("assort_categorical")
        if got is not None:
            ca, cb = x.codes[rows], x.codes[cols]
            tails = np.bincount(ca, weights=wt, minlength=self.categories) / total
            heads = np.bincount(cb, weights=wt, minlength=self.categories) / total
            inside = wt[ca == cb].sum() / total
            s = float(tails @ heads)
            want = (inside - s) / (1.0 - s)
            if abs(got - want) > 1e-9:
                r.fail("assort_categorical", f"r = {got!r}, harness {want!r}")


# -- expr-corpus ------------------------------------------------------------------


class ExprCorpus:
    """Many small random expressions, each through format -> parse ->
    simplify -> evaluate on its own small random tensor.

    Expression size sets the simplifier's cost (its search budget grows with
    the square of the node count), and a seed's draw of 200 can hold
    noticeably more or fewer large trees than another's. So a build draws a
    pool five times larger than it keeps, and keeps expressions at evenly
    spaced ranks of node count: every seed gets the grammar's own size
    distribution. The kept expressions are dealt into pages of 200 so that
    every page has the same size profile; successive passes run successive
    pages, so a longer run times more distinct trees.
    """

    name = "expr-corpus"
    long_ops = ()
    labels = ("alpha", "beta")
    per_page = 200
    pages = 4
    pool_factor = 5
    depth = 6

    def build(self, seed, smoke, work_dir):
        per_page = 5 if smoke else self.per_page
        kept = per_page * self.pages
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(self.pool_factor * kept):
            n = int(rng.integers(2, 13))
            names = [f"v{i}" for i in range(n)]
            pool.append((n, names, exprgen.random_expr(rng, self.labels, names, self.depth)))
        pool.sort(key=lambda item: node_count(item[2]))
        book = [[] for _ in range(self.pages)]
        for k in range(kept):
            n, names, e = pool[int((k + 0.5) * len(pool) / kept)]
            book[k % self.pages].append((exprgen.random_tensor(rng, n, self.labels, names), e))
        return SimpleNamespace(book=book)

    def run_pass(self, x, r, full=True):
        results = []
        for t, e in x.book[r.page]:
            start = perf_counter()
            try:
                parsed = expr.parse(format_expr(e))
                simplified, _ = rewrite.simplify(parsed)
                z = evaluation.evaluate(simplified, t)
            except Exception as err:  # a failed operation is counted, not fatal
                r.fail(f"expr{len(results)}", f"{type(err).__name__}: {err}")
                parsed = z = None
            r.add(f"p{r.page}.expr{len(results)}", "eval", start)
            results.append((t, parsed, z))
        r.outputs["results"] = results

    def check(self, x, r):
        for k, (t, parsed, z) in enumerate(r.outputs["results"]):
            if z is None:
                continue
            try:
                ref = evaluation.evaluate(parsed, t, use_plan=False)
            except Exception as err:  # a failed operation is counted, not fatal
                r.fail(f"expr{k}", f"unplanned original: {type(err).__name__}: {err}")
                continue
            a, b = z.to_dense(), ref.to_dense()
            if a.dtype.kind == "i" and b.dtype.kind == "i":
                same = np.array_equal(a, b)
            else:
                same = np.allclose(a.astype(float), b.astype(float), rtol=0, atol=1e-9)
            if not same:
                r.fail(f"expr{k}", f"simplified value differs for {format_expr(parsed)}")


# -- scholarly-cli ------------------------------------------------------------------


def _scholarly_triples(rng, smoke):
    if smoke:
        n_h, n_a, n_j, n_s, cites = 30, 70, 5, 5, (2, 6)
    else:
        n_h, n_a, n_j, n_s, cites = 600, 1_400, 100, 100, (10, 41)
    humans = ["marko"] + [f"h{i}" for i in range(1, n_h)]
    articles = [f"a{i}" for i in range(n_a)]
    journals = ["joi"] + [f"j{i}" for i in range(1, n_j)]
    fields = ["socsci"] + [f"f{i}" for i in range(1, 8)]
    software = [f"s{i}" for i in range(n_s)]
    triples = []
    for k, a in enumerate(articles):
        authors = rng.choice(n_h, size=int(rng.integers(1, 6)), replace=False).tolist()
        if k < 8 and 0 not in authors:
            authors.append(0)  # marko writes the first eight articles
        triples.extend((humans[h], "authored", a) for h in authors)
    for k, a in enumerate(articles):
        cited = rng.choice(n_a - 1, size=int(rng.integers(*cites)), replace=False)
        triples.extend((a, "cites", articles[c + (c >= k)]) for c in cited.tolist())
    # joi holds a tenth of the articles, so the marko query has answers
    share = np.full(n_j, 0.9 / (n_j - 1))
    share[0] = 0.1
    for a, j in zip(articles, rng.choice(n_j, size=n_a, p=share).tolist()):
        triples.append((journals[j], "contains", a))
    for k, j in enumerate(journals):
        picked = set(rng.choice(len(fields), size=int(rng.integers(1, 4)), replace=False).tolist())
        if k == 0:
            picked.add(0)
        triples.extend((j, "category", fields[f]) for f in sorted(picked))
    for s in software:
        devs = rng.choice(n_h, size=int(rng.integers(5, 21)) if not smoke else 2, replace=False)
        triples.extend((humans[h], "developed", s) for h in devs.tolist())
    field_of = {h: fields[f] for h, f in zip(humans, rng.integers(0, len(fields), size=n_h).tolist())}
    return triples, field_of


def marko_answers(triples):
    """Articles joi contains that an article marko authored cites, minus
    marko's own: the set comprehension behind the criterion-05 query."""
    mine = {h for t, l, h in triples if l == "authored" and t == "marko"}
    cited = {h for t, l, h in triples if l == "cites" and t in mine}
    in_joi = {h for t, l, h in triples if l == "contains" and t == "joi"}
    return (in_joi & cited) - mine


class ScholarlyCli:
    """A scholarly network written to TSV once; every pass runs eight CLI
    commands in-process, each re-ingesting the file."""

    name = "scholarly-cli"
    long_ops = ("cmd7",)
    pages = 1
    targets = {0: SELF_LOOP_TARGET, 1: JOURNAL_TARGET, 2: MERGE_TARGET}

    def build(self, seed, smoke, work_dir):
        rng = np.random.default_rng(seed)
        triples, field_of = _scholarly_triples(rng, smoke)
        os.makedirs(work_dir, exist_ok=True)
        graph = os.path.join(work_dir, "graph.tsv")
        fields = os.path.join(work_dir, "fields.tsv")
        with open(graph, "w", encoding="utf-8") as fh:
            fh.writelines(f"{t}\t{l}\t{h}\n" for t, l, h in triples)
        with open(fields, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v}\t{f}\n" for v, f in field_of.items())
        articles = sorted({h for t, l, h in triples if l == "cites"})
        spread_seeds = rng.choice(len(articles), size=min(10, len(articles)), replace=False)
        g = ["--graph", graph]
        commands = [
            ["eval", *g, "--simplify", "--expr", SELF_LOOP_SRC],
            ["eval", *g, "--simplify", "--expr", JOURNAL_SRC],
            ["eval", *g, "--simplify", "--expr", MERGE_SRC],
            ["eval", *g, "--expr", MARKO_QUERY],
            ["pagerank", *g, "--format", "json", "--expr", COAUTHOR],
            ["assort", *g, "--kind", "categorical", "--property", fields, "--expr", COAUTHOR],
            ["spread", *g, "--steps", "3", "--decay", "0.8", "--expr", "A[cites]"]
            + [f"--seed={articles[k]}=1" for k in sorted(spread_seeds.tolist())],
            ["geodesic", *g, "--expr", COAUTHOR],
        ]
        return SimpleNamespace(triples=triples, commands=commands, digests=None)

    def run_pass(self, x, r, full=True):
        outputs = []
        for k, argv in enumerate(x.commands):
            if not full and f"cmd{k}" in self.long_ops:
                continue
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # argparse rejecting the command line
                code = exc.code
            except Exception as err_:  # a failed operation is counted, not fatal
                code = None
                r.fail(f"cmd{k}", f"{type(err_).__name__}: {err_}")
            r.add(f"cmd{k}", argv[0], start)
            text = out.getvalue()
            r.bytes_out += len(text.encode("utf-8"))
            outputs.append((code, text, err.getvalue()))
        r.outputs["commands"] = outputs

    def check(self, x, r):
        outputs = r.outputs["commands"]
        digests = [hashlib.sha256(text.encode("utf-8")).hexdigest() for _, text, _ in outputs]
        if x.digests is None:
            x.digests = digests
        for k, (code, text, err) in enumerate(outputs):
            op = f"cmd{k}"
            if code != 0:
                r.fail(op, f"exit code {code}: {err.strip()[-200:]}")
            elif digests[k] != x.digests[k]:
                r.fail(op, "stdout differs from the first pass")
            elif k in self.targets:
                last = err.rstrip("\n").splitlines()[-1][2:].split("  | ")[0].rstrip()
                if last != format_expr(expr.parse(self.targets[k])):
                    r.fail(op, f"derivation ends at {last!r}")
            elif k == 3:
                got = {line.split("\t")[1] for line in text.splitlines()}
                if got != marko_answers(x.triples):
                    r.fail(op, "marko query answers differ from the set comprehension")
            elif k == 4:
                if abs(sum(json.loads(text)["values"].values()) - 1.0) > 1e-6:
                    r.fail(op, "pagerank values do not sum to one")


WORKLOADS = {w.name: w for w in (Coauthor, ExprCorpus, ScholarlyCli)}
