"""Seeded benchmark workloads over the public drinfeldlab API.

Each workload builds its inputs from a seed (the set-up), exposes its
pipeline calls as instances, and checks their outputs against oracles
written here.  The seed draws only theta-polynomial constants and points;
the operator, rank, degrees and windows are fixed, because they set the
cost.  Seed 0 (DEFAULT_SEED) gives the reference instances whose outputs
are recorded in reference.json.

Pipelines are called through their module (``ex.zero_dim_intersection``)
so that the tracer's rebinding reaches these calls too.
"""

from __future__ import annotations

import itertools
import json
import os
import random

from drinfeldlab import experiments as ex
from drinfeldlab.drinfeld import DrinfeldModule, phi_action
from drinfeldlab.kfield import KElem, kelem_to_str
from drinfeldlab.phimodule import (PhiModule, divisible_hull, member,
                                   point_to_str)
from drinfeldlab.twisted import tp_eval, tp_parse

P = 3
DEFAULT_SEED = 0
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


# -- helpers -------------------------------------------------------------------


def theta_poly(coeffs) -> KElem:
    """sum c_i theta^i with F_p digits, lowest degree first."""
    theta = KElem.theta(P)
    acc = KElem.zero(P)
    power = KElem.one(P)
    for c in coeffs:
        if c % P:
            acc = acc + KElem.const(P, c % P) * power
        power = power * theta
    return acc


def random_theta_poly(rng: random.Random, degree: int) -> KElem:
    """A theta-polynomial of exactly this degree with random F_p digits."""
    digits = [rng.randrange(P) for _ in range(degree)] + [rng.randrange(1, P)]
    return theta_poly(digits)


def keys(points):
    return sorted(point_to_str(tuple(x)) for x in points)


def report_canon(report):
    return {"verdict": report.verdict,
            "k_side": keys(report.k_side),
            "adelic_side": None if report.adelic_side is None
            else keys(report.adelic_side)}


def certificate_problems(gamma: PhiModule, x):
    """Re-derive a member certificate for x and check sum Phi_a(x_i) = x."""
    cert = member(gamma, x)
    if not cert.found:
        return [f"no member certificate for {point_to_str(x)}"]
    acc = [KElem.zero(P) for _ in range(gamma.g)]
    for a, gen in zip(cert.operators, gamma.gens):
        op = phi_action(gamma.phi, a)
        acc = [s + tp_eval(op, c) for s, c in zip(acc, gen)]
    if tuple(acc) != tuple(x):
        return [f"member certificate of {point_to_str(x)} fails its identity"]
    return []


def side_problems(report):
    k = set(keys(report.k_side))
    if report.adelic_side is not None and not k <= set(keys(report.adelic_side)):
        return ["K-side is not inside the adelic side"]
    return []


class Workload:
    """Inputs of one workload; build them with the constructor (set-up)."""
    name = ""

    def instances(self):
        """[(label, thunk)] in call order."""
        raise NotImplementedError

    def canon(self, label, result):
        raise NotImplementedError

    def problems(self, label, result):
        """Correctness gate for one instance; [] when every check holds."""
        raise NotImplementedError


# -- special-zero-dim ------------------------------------------------------------


class SpecialZeroDim(Workload):
    """zero_dim_intersection on the rank-3 hull of Phi_t(theta), p = 3."""
    name = "special-zero-dim"

    def __init__(self, seed: int):
        self.phi = DrinfeldModule.parse(P, "[0, theta, 1]")
        theta = KElem.theta(P)
        start = PhiModule(self.phi, 1, [(tp_eval(self.phi.phi_t, theta),)])
        self.gamma = divisible_hull(start, prime_bound=1)
        if self.gamma.rank != 3:
            raise RuntimeError(f"hull has rank {self.gamma.rank}, expected 3")
        if seed == DEFAULT_SEED:
            pts = [theta_poly([0, 1]), theta_poly([1, 1])]
        else:
            # a + b*theta with b != 0: members, since 1 and theta generate
            rng = random.Random(seed)
            pool = [(a, b) for a in range(P) for b in range(1, P)]
            pts = [theta_poly(ab) for ab in rng.sample(pool, 2)]
        self.variety = ex.ZeroDim(1, [(x,) for x in pts])

    def instances(self):
        return [("zero-dim",
                 lambda: ex.zero_dim_intersection(self.gamma, self.variety))]

    def canon(self, label, result):
        return report_canon(result)

    def problems(self, label, result):
        out = side_problems(result)
        for x in result.k_side:
            if x not in self.variety.points:
                out.append(f"K-side point {point_to_str(x)} is not in X")
            out.extend(certificate_problems(self.gamma, x))
        if keys(result.k_side) != keys(self.variety.points):
            out.append("K-side misses a point built from the generators")
        return out


# -- generic-sweep ---------------------------------------------------------------


class GenericSweep(Workload):
    """generic_char_experiment on three instances sharing one Carlitz module."""
    name = "generic-sweep"
    ENUM_DEG = 3          # the pipeline's default sweep window

    def __init__(self, seed: int):
        self.phi = DrinfeldModule.parse(P, "[t, 1]")
        theta, zero = KElem.theta(P), KElem.zero(P)
        self.gamma = PhiModule(self.phi, 2, [(theta, zero), (zero, theta)])
        if seed == DEFAULT_SEED:
            c1 = c2 = theta
            members = [(theta, zero), (zero, theta), (theta, theta)]
            outsiders = [(theta_poly([1, 1]), zero)]
        else:
            rng = random.Random(seed)
            c1, c2 = (theta_poly(rng.choice(
                [d for d in itertools.product(range(P), repeat=3) if any(d)]))
                for _ in range(2))
            scales = rng.sample([ab for ab in itertools.product(range(P),
                                                                repeat=2)
                                 if any(ab)], 4)
            members = [(theta * a, theta * b) for a, b in scales[:3]]
            # a nonzero constant term in theta keeps a point outside the
            # module: every Phi_a(theta) is divisible by theta
            a, b = scales[3]
            outsiders = [(theta * a + KElem.const(P, rng.randrange(1, P)),
                          theta * b)]
        self.equations = {
            "x*y-c": (f"x*y - ({kelem_to_str(c1)})",
                      lambda x, y: x * y - c1),
            "x^2-c*y": (f"x^2 - ({kelem_to_str(c2)})*y",
                        lambda x, y: x * x - c2 * y),
        }
        self.varieties = {label: ex.Hypersurface(ex.poly_parse(P, 2, text))
                          for label, (text, _) in self.equations.items()}
        self.varieties["4-points"] = ex.ZeroDim(2, members + outsiders)
        self._window = None

    def instances(self):
        return [(label, lambda v=v: ex.generic_char_experiment(self.gamma, v))
                for label, v in self.varieties.items()]

    def canon(self, label, result):
        return report_canon(result)

    def window(self):
        """Brute-force sweep: every Phi_c(gens) with deg c_i <= ENUM_DEG."""
        if self._window is None:
            width = self.ENUM_DEG + 1
            consts = [KElem.const(P, d) for d in range(P)]
            per_gen = []
            for gen in self.gamma.gens:
                iterates = [gen]
                for _ in range(self.ENUM_DEG):
                    iterates.append(tuple(tp_eval(self.phi.phi_t, c)
                                          for c in iterates[-1]))
                images = []
                for digits in itertools.product(range(P), repeat=width):
                    acc = [KElem.zero(P)] * self.gamma.g
                    for d, it in zip(digits, iterates):
                        if d:
                            acc = [s + consts[d] * c for s, c in zip(acc, it)]
                    images.append(tuple(acc))
                per_gen.append(images)
            self._window = [tuple(sum(cs, KElem.zero(P))
                                  for cs in zip(*combo))
                            for combo in itertools.product(*per_gen)]
        return self._window

    def problems(self, label, result):
        out = side_problems(result)
        if label in self.equations:
            f = self.equations[label][1]
            expected = keys(w for w in self.window() if f(*w).is_zero())
            for x in result.k_side:
                if not f(*x).is_zero():
                    out.append(f"K-side point {point_to_str(x)} is not on X")
        else:
            inside = set(keys(self.window()))
            expected = [k for k in keys(self.varieties[label].points)
                        if k in inside]
            for x in result.k_side:
                if x not in self.varieties[label].points:
                    out.append(f"K-side point {point_to_str(x)} is not in X")
        for x in result.k_side:
            out.extend(certificate_problems(self.gamma, x))
        if keys(result.k_side) != expected:
            out.append(f"K-side {keys(result.k_side)} != brute-force sweep"
                       f" {expected}")
        return out


# -- uniformity-sweep ------------------------------------------------------------


class UniformitySweep(Workload):
    """uniformity_probe of psi = theta*tau + tau^2 over 27 translates."""
    name = "uniformity-sweep"
    M_RANGE = (0, 1, 2, 3)

    def __init__(self, seed: int):
        self.psi = tp_parse(P, "[0, theta, 1]")
        self.box = ex.theta_box(P, 1, 4)
        self.translates = [(theta_poly(d),)
                           for d in itertools.product(range(P), repeat=3)]
        if seed == DEFAULT_SEED:
            c = theta_poly([0, 1])
            quartic = [theta_poly([1, 1]), theta_poly([0, 1, 0, 1]),
                       theta_poly([0, 0, 1])]
            texts = {"cubic": "x^3 - theta^2*x",
                     "quartic": "x*(x-theta-1)*(x-theta^3-theta)*(x-theta^2)"}
        else:
            rng = random.Random(seed)
            c = random_theta_poly(rng, 1)
            quartic = [random_theta_poly(rng, d) for d in (1, 3, 2)]
            texts = {"cubic": f"x^3 - ({kelem_to_str(c)})^2*x",
                     "quartic": "x*" + "*".join(f"(x-({kelem_to_str(r)}))"
                                                for r in quartic)}
        zero = KElem.zero(P)
        self.roots = {"cubic": [zero, c, zero - c],
                      "quartic": [zero] + quartic}
        self.varieties = {label: ex.Hypersurface(ex.poly_parse(P, 1, text))
                          for label, text in texts.items()}

    def instances(self):
        return [(label, lambda v=v: ex.uniformity_probe(
                    self.psi, v, self.translates, self.M_RANGE, self.box))
                for label, v in self.varieties.items()]

    def canon(self, label, result):
        return {"rows": [list(r) for r in result.rows],
                "max_counts": [list(r) for r in result.max_counts],
                "certified": result.certified}

    def problems(self, label, result):
        out = []
        roots = self.roots[label]

        def on_x(z):
            acc = KElem.one(P)
            for r in roots:
                acc = acc * (z - r)
            return acc.is_zero()

        counts = {}
        for idx, m, count in result.rows:
            counts[(idx, m)] = count
        for idx, (a,) in enumerate(self.translates):
            brute = sum(1 for (x,) in self.box if on_x(x - a))
            if counts.get((idx, 0)) != brute:
                out.append(f"translate {idx}: level-0 count"
                           f" {counts.get((idx, 0))} != box count {brute}")
            row = [counts.get((idx, m)) for m in self.M_RANGE]
            if None in row or any(hi > lo for lo, hi in zip(row, row[1:])):
                out.append(f"translate {idx}: counts {row} not"
                           " non-increasing in m")
        return out


WORKLOADS = {w.name: w for w in (SpecialZeroDim, GenericSweep,
                                 UniformitySweep)}


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
