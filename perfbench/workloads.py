"""The benchmark's workloads: the CLI calls one sample makes, and the checks on them.

A sample is one pass of a workload: one or more `hasimoto-lab` calls, each
in a fresh interpreter. Sample 0 of every run uses the reference inputs
(`reference=True` below), so its report.json can be compared with the values
recorded in reference.json and its statistical checks have a fixed outcome.
Later samples draw their inputs from the run's seed.

Work is counted in node steps: sum of n x steps over every trajectory
advanced. Steps are read from report.json (n_steps, or the levels of a
crosscheck), never computed from t_end / dt.
"""

import csv
import math
import os

# Statistical checks on samples other than the reference one: a correct
# program misses a 3-sigma band at a random seed in a few percent of
# ensembles (the covariance product is skewed at these path counts), so
# there the check is a gross-error bound at 6 sigma.
GROSS_SIGMAS = 6.0


class Workload:
    """One workload; `why` is the sentence BENCHMARK.json gives for choosing it."""

    name = ""
    why = ""
    sizes = {}

    def prepare(self, workdir, size):
        """Write any input files the CLI calls read."""

    def params(self, rng, reference):
        """Inputs of one sample."""
        raise NotImplementedError

    def calls(self, size, params):
        """[(leg, cli argv without --out)] for one sample."""
        raise NotImplementedError

    def verify(self, size, legs, check, reference):
        """Check one sample's outputs; return (node_steps, paths).

        legs maps leg name to {"report": report.json as a dict, "out": its directory}.
        """
        raise NotImplementedError


def _sets(**kv):
    out = []
    for key, val in kv.items():
        out += ["--set", f"{key}={val}"]
    return out


class Ensemble(Workload):
    name = "ensemble"
    why = ("Many paths at small n, where the per-path Python loops of "
           "stochastic, noise and validation dominate, so path batching should move it.")
    sizes = {"full": {"n_paths": 100, "t_end": "0.01"},
             "smoke": {"n_paths": 8, "t_end": "0.003"}}
    n = 64
    reference_seeds = (2024, 77)

    def prepare(self, workdir, size):
        # q0 = 0.2 + 0.06 cos x on the periodic grid of circumference 2 pi,
        # the data of acceptance criteria 08 and 09
        self.q0_file = os.path.join(workdir, "ensemble_q0.csv")
        h = 2.0 * math.pi / self.n
        with open(self.q0_file, "w") as fh:
            fh.write("re,im\n")
            for j in range(self.n):
                fh.write(f"{0.2 + 0.06 * math.cos(j * h)!r},0.0\n")

    def params(self, rng, reference):
        if reference:
            return {"sllg_seed": self.reference_seeds[0],
                    "cov_seed": self.reference_seeds[1]}
        return {"sllg_seed": rng.randrange(1, 2 ** 31),
                "cov_seed": rng.randrange(1, 2 ** 31)}

    def calls(self, size, params):
        common = _sets(domain="periodic", n=self.n, dt="0.001",
                       t_end=self.sizes[size]["t_end"], n_modes=4,
                       n_paths=self.sizes[size]["n_paths"],
                       initial_data="file", initial_file=self.q0_file)
        return [("sllg", ["sllg", "--seed", str(params["sllg_seed"])] + common),
                ("covariance",
                 ["covariance", "--seed", str(params["cov_seed"])] + common)]

    def verify(self, size, legs, check, reference):
        n_paths = self.sizes[size]["n_paths"]
        sl = legs["sllg"]["report"]
        cov = legs["covariance"]["report"]
        check("sllg.n_paths", sl["n_paths"] == n_paths, sl["n_paths"])
        check("covariance.n_paths", cov["n_paths"] == n_paths, cov["n_paths"])
        sigmas = 3.0 if reference else GROSS_SIGMAS
        wr = sl["weak_residual"]
        check("weak_residual", wr["stderr"] > 0
              and abs(wr["mean"]) <= sigmas * wr["stderr"],
              f"mean {wr['mean']:.3e}, stderr {wr['stderr']:.3e}")
        for pair, rep in sorted(cov["pairs"].items()):
            gap = abs(rep["mc_estimate"] - rep["direct"])
            check(f"covariance.{pair}", rep["mc_ci3"] > 0
                  and (rep["within_3sigma"] if reference
                       else gap <= sigmas / 3.0 * rep["mc_ci3"]),
                  f"|mc - direct| {gap:.3e}, mc_ci3 {rep['mc_ci3']:.3e}")
        # the covariance report carries no step count; both legs run the
        # same dt and t_end, so it advances as many steps as the sllg leg
        steps = sl["n_steps"]
        node_steps = self.n * steps * (sl["n_paths"] + cov["n_paths"])
        return node_steps, sl["n_paths"] + cov["n_paths"]


class Deterministic(Workload):
    name = "deterministic"
    why = ("Two RK4 single-trajectory flows and transform on the line with no "
           "noise, which bypass path batching and load the integrator, cross "
           "product and one-sided stencils.")
    sizes = {"full": {"grid_sizes": "1024,2048,4096", "t_end": "1.0"},
             "smoke": {"grid_sizes": "256,512", "t_end": "0.1"}}
    max_sup_disc = 1e-3

    def params(self, rng, reference):
        return {"amplitude": 0.25 if reference else round(rng.uniform(0.22, 0.28), 6)}

    def calls(self, size, params):
        return [("crosscheck",
                 ["crosscheck"] + _sets(domain="line", **self.sizes[size],
                                        amplitude=params["amplitude"]))]

    def verify(self, size, legs, check, reference):
        rep = legs["crosscheck"]["report"]
        levels = rep["levels"]
        want = [int(s) for s in self.sizes[size]["grid_sizes"].split(",")]
        check("levels", [lv["n"] for lv in levels] == want,
              [lv["n"] for lv in levels])
        check("not_flagged", rep["flagged"] is False, rep["flagged"])
        sup = levels[-1]["sup_disc"]
        check("finest_sup_disc", sup <= self.max_sup_disc, f"{sup:.3e}")
        # each level advances the LLG and the heat flow over its steps
        node_steps = sum(2 * lv["n"] * round(lv["times"][-1] / lv["dt"])
                         for lv in levels)
        return node_steps, 0


class LongCurve(Workload):
    name = "long-curve"
    why = ("Few paths at large n, where the reconstruct_frame node loop and "
           "writing series_u.csv dominate, so a frame scan helps and batching little.")
    sizes = {"full": {"n": 4096, "t_end": "5e-5", "output_stride": 6},
             "smoke": {"n": 256, "t_end": "1e-3", "output_stride": 1}}
    n_paths = 2
    reference_seed = 11
    max_unit_dev = 1e-12

    def params(self, rng, reference):
        return {"seed": self.reference_seed if reference else rng.randrange(1, 2 ** 31)}

    def calls(self, size, params):
        return [("sllg", ["sllg", "--seed", str(params["seed"])]
                 + _sets(domain="periodic", dt="auto", n_paths=self.n_paths,
                         **self.sizes[size]))]

    def verify(self, size, legs, check, reference):
        n = self.sizes[size]["n"]
        stride = self.sizes[size]["output_stride"]
        rep = legs["sllg"]["report"]
        steps = rep["n_steps"]
        frames = sum(1 for k in range(steps + 1) if k % stride == 0 or k == steps)
        rows = 0
        dev = 0.0
        with open(os.path.join(legs["sllg"]["out"], "series_u.csv")) as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                rows += 1
                ux, uy, uz = float(row[3]), float(row[4]), float(row[5])
                dev = max(dev, abs(math.sqrt(ux * ux + uy * uy + uz * uz) - 1.0))
        check("series_u.rows", rows == frames * n, f"{rows} != {frames} x {n}")
        check("series_u.unit_norm", dev <= self.max_unit_dev, f"{dev:.3e}")
        return n * steps * rep["n_paths"], rep["n_paths"]


WORKLOADS = {w.name: w for w in (Ensemble(), Deterministic(), LongCurve())}
