"""Family-based workload synthesizer with known-parallelism labels.

The fuzz :class:`~repro.fuzz.generator.ProgramGenerator` (PR 5) emits
*random valid* programs — good for differential testing, useless for
mapping the estimator, because nobody knows what the right answer is.
This module promotes generation to *families*: each
:class:`Family` emits deterministic, seeded minijava whose parallelism
structure is known **by construction**, carried alongside the source as
a :class:`ParallelismLabel`:

* ``doall`` — the kernel loop(s) have no loop-carried dependence;
  some registered execution model must achieve real simulated speedup.
* ``doacross`` — the kernel carries a dependence that post/wait (or
  TLS) can overlap; some model must still achieve speedup, and the
  selector should find DOACROSS competitive on at least some instances.
* ``serial`` — the kernel carries a tight heap-routed dependence chain
  that no registered model can break; simulated speedup must stay ~1x.

Labels are therefore *test oracles*, not documentation: the label
oracle (:mod:`repro.synth.oracle`) runs instances through the full
pipeline and gates the simulated outcome against the label, and the
error atlas (:mod:`repro.synth.atlas`) maps where Equation 1's error
bound actually breaks, family by family.

Determinism contract: ``generate_instance(family, i, seed)`` derives a
private ``random.Random`` from ``(seed, family, i)`` (string-seeded, so
stable across platforms and Python versions) and never shares state —
the same triple yields byte-identical source regardless of generation
order or prior generator use.  Every emitted program's ``main()``
returns a checksum over all mutable state, so any semantic divergence
is observable.

The five families (paper Section 6's missing diversity axis):

========= ========== ==============================================
family    class      kernel shape
========= ========== ==============================================
stencil   doall      3-point Jacobi sweeps, src/dst double buffer
reduction doacross   scalar or binned-array reduction with work
chase     serial     pointer chase through an index array, heap-
                     carried via ``cur[0]`` (the Eq. 1 bound breaker)
graph     doall      irregular fixed-degree graph gather, disjoint
                     per-node writes
mixed     doacross   nested sweeps with a controllable fraction of
                     cross-iteration ``a[i-d] -> a[i]`` heap arcs
========= ========== ==============================================
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Tuple

from repro.workloads.registry import SYNTHETIC, Workload

#: base seed of the default (auto-registered) corpus.  Pinned — the
#: default corpus is part of the test surface (goldens pin one program
#: per family), so it must not follow JRPM_TEST_SEED.
DEFAULT_SYNTH_SEED = 20260808

#: instances per family in the default corpus
DEFAULT_PER_FAMILY = 20

#: label classes
CLASS_DOALL = "doall"
CLASS_DOACROSS = "doacross"
CLASS_SERIAL = "serial"

LABEL_CLASSES = (CLASS_DOALL, CLASS_DOACROSS, CLASS_SERIAL)

#: classes whose instances must achieve simulated speedup
PARALLEL_CLASSES = (CLASS_DOALL, CLASS_DOACROSS)


class ParallelismLabel:
    """Known-parallelism ground truth for one generated instance."""

    def __init__(self, expected_class: str, carried: Tuple[str, ...],
                 family: str, index: int, base_seed: int,
                 params: Dict):
        if expected_class not in LABEL_CLASSES:
            raise ValueError("unknown parallelism class %r"
                             % expected_class)
        self.expected_class = expected_class
        #: human-readable description of the loop(s) carrying the
        #: dependence, empty for doall kernels
        self.carried = tuple(carried)
        self.family = family
        self.index = index
        self.base_seed = base_seed
        #: the sampled generator parameters (ints/strings only)
        self.params = dict(params)

    @property
    def parallel(self) -> bool:
        return self.expected_class in PARALLEL_CLASSES

    def to_dict(self) -> Dict:
        return {
            "expected_class": self.expected_class,
            "carried": list(self.carried),
            "family": self.family,
            "index": self.index,
            "base_seed": self.base_seed,
            "params": dict(self.params),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ParallelismLabel %s/%d %s>" % (
            self.family, self.index, self.expected_class)


class SyntheticWorkload(Workload):
    """A generated registry workload carrying its parallelism label."""

    def __init__(self, name: str, description: str, source_text: str,
                 label: ParallelismLabel):
        Workload.__init__(
            self, name=name, category=SYNTHETIC,
            description=description, source_text=source_text,
            # family:base_seed:index — enough to regenerate this exact
            # instance with one jrpm synth invocation
            dataset="%s:%d:%d" % (label.family, label.base_seed,
                                  label.index))
        self.label = label

    def replay_hint(self) -> str:
        """The one-liner that regenerates exactly this instance."""
        return ("jrpm synth --families %s --seed %d --per-family %d"
                % (self.label.family, self.label.base_seed,
                   self.label.index + 1))


def instance_name(family: str, index: int,
                  base_seed: int = DEFAULT_SYNTH_SEED) -> str:
    """Registry name for one instance.  Default-corpus instances get
    the short stable form; other seeds are namespaced by seed so ad-hoc
    generations can coexist with the registered corpus."""
    if base_seed == DEFAULT_SYNTH_SEED:
        return "synth-%s-%03d" % (family, index)
    return "synth-%s-s%d-%03d" % (family, base_seed, index)


def _rng(family: str, index: int, base_seed: int) -> random.Random:
    # string seeding hashes via SHA-512 (random.seed version 2):
    # deterministic across runs, platforms, and Python versions
    return random.Random("jrpm-synth:%d:%s:%d"
                         % (base_seed, family, index))


class Family:
    """One parameterized program family.

    Subclasses implement :meth:`sample` (draw parameters from the
    instance rng) and :meth:`emit` (deterministically render source +
    label fragments from those parameters).
    """

    name = "family"
    description = ""
    expected_class = CLASS_DOALL

    def sample(self, rng: random.Random) -> Dict:
        raise NotImplementedError

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        """Return ``(source_text, carried_dependences)``."""
        raise NotImplementedError

    def generate(self, index: int,
                 base_seed: int = DEFAULT_SYNTH_SEED
                 ) -> SyntheticWorkload:
        rng = _rng(self.name, index, base_seed)
        params = self.sample(rng)
        source, carried = self.emit(params)
        label = ParallelismLabel(self.expected_class, carried,
                                 self.name, index, base_seed, params)
        return SyntheticWorkload(
            name=instance_name(self.name, index, base_seed),
            description="%s [%s]" % (self.description,
                                     self.expected_class),
            source_text=source, label=label)


# ---------------------------------------------------------------------------
# the five families


class StencilFamily(Family):
    """DOALL: 3-point Jacobi sweeps over a double buffer.

    Each sweep iteration reads only the *other* buffer, so the kernel
    loops carry nothing; the outer timestep loop alternates buffers
    and is deliberately cheap next to the sweeps it wraps.
    """

    name = "stencil"
    description = "3-point Jacobi stencil, double-buffered"
    expected_class = CLASS_DOALL

    def sample(self, rng: random.Random) -> Dict:
        return {
            "n": rng.randrange(96, 257, 16),
            "steps": rng.randint(2, 4),
            "w0": rng.randint(1, 4),
            "w1": rng.randint(1, 4),
            "w2": rng.randint(1, 4),
            "init_a": rng.randint(3, 97),
            "init_b": rng.randint(1, 53),
            "mod": rng.choice([251, 509, 1021]),
        }

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        p = params
        src = """\
// synth:stencil — DOALL 3-point Jacobi, double-buffered
func main() {
  var n = %(n)d;
  var src = array(%(n)d);
  var dst = array(%(n)d);
  for (var i0 = 0; i0 < n; i0 = i0 + 1) {
    src[i0] = (i0 * %(init_a)d + %(init_b)d) %% %(mod)d;
  }
  for (var t = 0; t < %(steps)d; t = t + 1) {
    // kernel loop (doall): reads src only, writes dst only
    for (var i = 1; i < n - 1; i = i + 1) {
      dst[i] = (%(w0)d * src[i - 1] + %(w1)d * src[i]
                + %(w2)d * src[i + 1]) %% %(mod)d;
    }
    // copy-back sweep (doall): disjoint writes into src
    for (var j = 1; j < n - 1; j = j + 1) {
      src[j] = dst[j];
    }
  }
  var check = 0;
  for (var k = 0; k < n; k = k + 1) {
    check = (check * 31 + src[k]) %% 1000003;
  }
  return check;
}
""" % p
        return src, ()


class ReductionFamily(Family):
    """DOACROSS-friendly: scalar or binned-array reduction with per-
    iteration work.

    The scalar variant carries ``s`` (a local recurrence — exactly what
    the DOACROSS live-in predictor covers); the array variant folds
    into ``acc[i & (bins-1)]``, a heap recurrence at distance ``bins``
    that post/wait overlaps.
    """

    name = "reduction"
    description = "scalar/binned-array reduction with work"
    expected_class = CLASS_DOACROSS

    def sample(self, rng: random.Random) -> Dict:
        return {
            "n": rng.randrange(256, 769, 64),
            "kind": rng.choice(["scalar", "array"]),
            "bins": rng.choice([8, 16]),
            "c1": rng.randint(3, 31),
            "c2": rng.randint(3, 31),
            "mask": rng.choice([63, 127, 255]),
            "m1": rng.choice([89, 97, 127]),
            "init_a": rng.randint(5, 41),
            "init_b": rng.randint(1, 23),
        }

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        p = dict(params)
        if p["kind"] == "scalar":
            decl = "  var s = 0;"
            fold = "    s = (s + y) %% 1000003;" % ()
            finish = "  var check = s;"
            carried = ("kernel: scalar s (local recurrence, "
                       "predictor-coverable)",)
        else:
            decl = "  var acc = array(%(bins)d);" % p
            fold = "    acc[i & %d] = (acc[i & %d] + y) %% 1000003;" \
                % (p["bins"] - 1, p["bins"] - 1)
            finish = ("  var check = 0;\n"
                      "  for (var b = 0; b < %(bins)d; b = b + 1) {\n"
                      "    check = (check * 31 + acc[b]) %% 1000003;\n"
                      "  }") % p
            carried = ("kernel: acc[i & %d] (heap recurrence at "
                       "distance %d)" % (p["bins"] - 1, p["bins"]),)
        src = """\
// synth:reduction — %(kind)s reduction with per-iteration work
func main() {
  var n = %(n)d;
  var a = array(%(n)d);
  for (var i0 = 0; i0 < n; i0 = i0 + 1) {
    a[i0] = (i0 * %(init_a)d + %(init_b)d) %% 211;
  }
""" % p
        src += decl + "\n"
        src += """\
  // kernel loop (doacross-friendly): reduction carried across
  // iterations, per-iteration work is independent
  for (var i = 0; i < n; i = i + 1) {
    var x = a[i];
    var y = ((x * %(c1)d) %% %(m1)d) + ((x * %(c2)d) & %(mask)d);
""" % p
        src += fold + "\n  }\n"
        src += finish + "\n"
        src += "  return check;\n}\n"
        return src, carried


class ChaseFamily(Family):
    """Serial: pointer chase through an index array, carried via the
    heap cell ``cur[0]``.

    The dependence is routed through memory on purpose: a local-carried
    chase (``p = next[p]``) would be "covered" by the DOACROSS timing
    predictor, but nothing covers a heap cell that every iteration
    loads first and stores last.  The tiny thread bodies are also the
    family's reason to exist in the atlas: Equation 1 models the chain
    as arc-separation delay, while the TLS simulator pays a restart per
    violated thread, so this family is where the 40% fallback bound
    measurably breaks.
    """

    name = "chase"
    description = "heap-carried pointer chase over an index array"
    expected_class = CLASS_SERIAL

    def sample(self, rng: random.Random) -> Dict:
        return {
            "n": rng.randrange(32, 97, 8),
            "steps": rng.randrange(1200, 2201, 100),
            "pa": rng.randint(3, 61) * 2 + 1,
            "pb": rng.randint(1, 31),
            # "bare" is the minimal body (the strongest bound
            # breaker); "acc" adds one accumulation statement
            "variant": rng.choice(["bare", "acc"]),
        }

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        p = dict(params)
        body = "    cur[0] = next[cur[0]];\n"
        acc_decl = ""
        ret = "  return cur[0];"
        if p["variant"] == "acc":
            acc_decl = "  var acc = 0;\n"
            body = ("    var q = next[cur[0]];\n"
                    "    acc = (acc + q) %% 1000003;\n"
                    "    cur[0] = q;\n") % ()
            ret = "  return acc * %(n)d + cur[0];" % p
        src = """\
// synth:chase — serial pointer chase, heap-carried via cur[0]
func main() {
  var n = %(n)d;
  var next = array(%(n)d);
  var cur = array(1);
  for (var i0 = 0; i0 < n; i0 = i0 + 1) {
    next[i0] = (i0 * %(pa)d + %(pb)d) %% n;
  }
  cur[0] = 0;
""" % p
        src += acc_decl
        src += ("  // kernel loop (serial): cur[0] -> cur[0] heap "
                "chain, tiny body\n")
        src += "  for (var t = 0; t < %(steps)d; t = t + 1) {\n" % p
        src += body
        src += "  }\n"
        src += ret + "\n}\n"
        return src, ("kernel: cur[0] -> cur[0] (heap chain, every "
                     "iteration)",)


class GraphFamily(Family):
    """DOALL: irregular fixed-degree graph gather.

    Every node reads an arbitrary (hash-scattered) neighbor set from
    read-only adjacency/value arrays and writes only its own ``out``
    slot — irregular accesses, zero cross-iteration dependences.  An
    optional second round re-gathers from the first round's output,
    making the *round* loop carry while the node loops stay doall.
    """

    name = "graph"
    description = "irregular fixed-degree graph gather"
    expected_class = CLASS_DOALL

    def sample(self, rng: random.Random) -> Dict:
        return {
            "nodes": rng.randrange(32, 65, 8),
            "degree": rng.choice([4, 6, 8]),
            "ea": rng.randint(7, 131) * 2 + 1,
            "eb": rng.randint(1, 37),
            "va": rng.randint(3, 29),
            "vb": rng.randint(1, 17),
            "rounds": rng.randint(1, 2),
        }

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        p = dict(params)
        p["edges"] = p["nodes"] * p["degree"]
        src = """\
// synth:graph — DOALL irregular gather, disjoint per-node writes
func main() {
  var n = %(nodes)d;
  var deg = %(degree)d;
  var edges = array(%(edges)d);
  var val = array(%(nodes)d);
  var out = array(%(nodes)d);
  for (var e = 0; e < %(edges)d; e = e + 1) {
    edges[e] = (e * %(ea)d + %(eb)d) %% n;
  }
  for (var v = 0; v < n; v = v + 1) {
    val[v] = (v * %(va)d + %(vb)d) %% 211;
  }
  for (var r = 0; r < %(rounds)d; r = r + 1) {
    // kernel loop (doall): reads val/edges, writes only out[u]
    for (var u = 0; u < n; u = u + 1) {
      var sum = 0;
      for (var k = 0; k < deg; k = k + 1) {
        var w = edges[u * deg + k];
        sum = (sum + val[w] * (k + 1)) %% 1000003;
      }
      out[u] = sum;
    }
    // feedback sweep (doall): next round gathers from this one
    for (var c = 0; c < n; c = c + 1) {
      val[c] = out[c];
    }
  }
  var check = 0;
  for (var z = 0; z < n; z = z + 1) {
    check = (check * 31 + out[z]) %% 1000003;
  }
  return check;
}
""" % p
        return src, ()


class MixedFamily(Family):
    """DOACROSS-friendly: nested sweeps with a controllable fraction
    of cross-iteration heap arcs.

    Every iteration rewrites ``a[i]``; every ``k``-th additionally
    reads ``a[i - dist]`` — a real heap dependence at distance
    ``dist`` carried by a 1/k fraction of iterations (``dep_fraction``
    in the label params).  Small fractions leave plenty of overlap for
    post/wait; the arc pattern (rare, data-independent) is also where
    Equation 1's arc-frequency averaging is stress-tested.
    """

    name = "mixed"
    description = "mixed nest, controllable cross-iteration deps"
    expected_class = CLASS_DOACROSS

    def sample(self, rng: random.Random) -> Dict:
        k = rng.choice([4, 8, 16])
        return {
            "n": rng.randrange(384, 769, 64),
            "k": k,
            "dist": rng.choice([1, 2]),
            "passes": rng.randint(1, 2),
            "c1": rng.randint(3, 29),
            "mod": rng.choice([251, 509]),
            "init_a": rng.randint(5, 43),
            "init_b": rng.randint(1, 19),
        }

    def emit(self, params: Dict) -> Tuple[str, Tuple[str, ...]]:
        p = dict(params)
        p["kmask"] = p["k"] - 1
        src = """\
// synth:mixed — a[i-%(dist)d] -> a[i] heap arc on every %(k)dth
// iteration (dep fraction 1/%(k)d)
func main() {
  var n = %(n)d;
  var a = array(%(n)d);
  for (var i0 = 0; i0 < n; i0 = i0 + 1) {
    a[i0] = (i0 * %(init_a)d + %(init_b)d) %% %(mod)d;
  }
  for (var ps = 0; ps < %(passes)d; ps = ps + 1) {
    // kernel loop (doacross-friendly): rare heap arcs, mostly
    // independent iterations
    for (var i = %(dist)d; i < n; i = i + 1) {
      var x = (a[i] * %(c1)d + i) %% %(mod)d;
      if ((i & %(kmask)d) == 0) {
        x = (x + a[i - %(dist)d]) %% %(mod)d;
      }
      a[i] = x;
    }
  }
  var check = 0;
  for (var z = 0; z < n; z = z + 1) {
    check = (check * 31 + a[z]) %% 1000003;
  }
  return check;
}
""" % p
        carried = ("kernel: a[i-%(dist)d] -> a[i] (heap, every "
                   "%(k)dth iteration)" % p,)
        return src, carried


#: the registered families, in canonical order
FAMILIES: Dict[str, Family] = {}
for _fam in (StencilFamily(), ReductionFamily(), ChaseFamily(),
             GraphFamily(), MixedFamily()):
    FAMILIES[_fam.name] = _fam


def family_names() -> List[str]:
    """All family names, in canonical order."""
    return list(FAMILIES)


def get_family(name: str) -> Family:
    """Look up one family (KeyError if unknown)."""
    return FAMILIES[name]


def generate_instance(family: str, index: int,
                      base_seed: int = DEFAULT_SYNTH_SEED
                      ) -> SyntheticWorkload:
    """Deterministically (re)generate one instance."""
    return get_family(family).generate(index, base_seed)


def generate_family(family: str, per_family: int,
                    base_seed: int = DEFAULT_SYNTH_SEED
                    ) -> List[SyntheticWorkload]:
    """Instances ``0..per_family-1`` of one family."""
    fam = get_family(family)
    return [fam.generate(i, base_seed) for i in range(per_family)]


def generate_corpus(families: Optional[Iterable[str]] = None,
                    per_family: int = DEFAULT_PER_FAMILY,
                    base_seed: int = DEFAULT_SYNTH_SEED
                    ) -> List[SyntheticWorkload]:
    """The cross product: ``per_family`` instances of each family, in
    canonical family order."""
    names = list(families) if families is not None else family_names()
    out: List[SyntheticWorkload] = []
    for name in names:
        out.extend(generate_family(name, per_family, base_seed))
    return out


def default_corpus(per_family: int = DEFAULT_PER_FAMILY
                   ) -> List[SyntheticWorkload]:
    """The auto-registered corpus: every family at the pinned default
    seed.  ``per_family`` trims for smoke subsets (prefixes of the full
    corpus, so instance identities are stable)."""
    return generate_corpus(per_family=per_family,
                           base_seed=DEFAULT_SYNTH_SEED)
