"""Seeded inputs of the benchmark workloads, and the physics they must obey.

A workload is a pool of rounds; a round is a list of ops in a seeded order,
each op one ``sqzlab run`` config plus what the check needs to know about
it.  Everything is drawn from the workload seed with the standard library's
``random``, so the inputs do not depend on the numpy version under test.

The closed forms below restate the README physics independently of the
``sqzlab`` package: they generate the fit sweeps and judge the outputs.
"""

from __future__ import annotations

import math
import random

H = 6.62607015e-34  # Planck constant, exact in SI 2019
C = 299792458.0  # speed of light

SAMPLED = ("bhd-psd", "snr-equivalence", "photon-record")
MODELS = ("opo-spectrum", "decohere", "fit-loss", "noise-budget")
WORKLOADS = {
    "cli-cold": SAMPLED + MODELS,
    "sampled-csv": SAMPLED,
    "model-json": MODELS,
}
IN_PROCESS = ("sampled-csv", "model-json")
# Distinct rounds generated at set-up; the timed loop cycles through them.
# The pool outlasts a run of model-json, so its tail is a quantile of the
# input distribution rather than the slowest of a few repeated rounds.
POOL_ROUNDS = 1024
STRATA = 64

# photon-record counts 0.1 ms windows of a 1064 nm carrier (its defaults).
PHOTON_WAVELENGTH_M = 1.064e-6
PHOTON_WINDOW_S = 1.0e-4
# The bundled fit-loss sweep was generated from this (loss, jitter in deg).
BUNDLED_TRUTH = (0.086, 0.0)
FIT_ADDED_LOSSES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def photon_power(mean_photons: float) -> float:
    """Carrier power that puts ``mean_photons`` into one counting window."""
    return mean_photons * H * C / (PHOTON_WAVELENGTH_M * PHOTON_WINDOW_S)


def opo_variances(pump: float, escape: float, frequency: float, half_linewidth: float):
    """Squeezed and anti-squeezed variance of a below-threshold cavity."""
    detuning = (frequency / half_linewidth) ** 2
    v_s = 1.0 - escape * 4.0 * pump / ((1.0 + pump) ** 2 + detuning)
    v_a = 1.0 + escape * 4.0 * pump / ((1.0 - pump) ** 2 + detuning)
    return v_s, v_a


def sweep_point_db(gain, loss, added, jitter_deg, frequency=0.0, half_linewidth=1.0e6):
    """(squeeze dB, anti-squeeze dB) after loss and Gaussian angle jitter."""
    pump = 1.0 - 1.0 / math.sqrt(gain)
    v_s, v_a = opo_variances(pump, 1.0, frequency, half_linewidth)
    eta = (1.0 - loss) * (1.0 - added)
    v_s, v_a = eta * v_s + 1.0 - eta, eta * v_a + 1.0 - eta
    sigma = math.radians(jitter_deg)
    w = 0.5 * (1.0 + math.exp(-2.0 * sigma * sigma))
    return (
        10.0 * math.log10(w * v_s + (1.0 - w) * v_a),
        10.0 * math.log10(w * v_a + (1.0 - w) * v_s),
    )


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi), shuffled."""
    draws = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _op(rng: random.Random, workload: str, experiment: str, draw) -> dict:
    params: dict = {}
    expect = {"truth": BUNDLED_TRUTH} if experiment == "fit-loss" else {}
    if experiment == "photon-record":
        params["power_w"] = photon_power(draw("photons", 500.0, 2000.0))
    if workload == "model-json":
        if experiment == "opo-spectrum":
            params["gain"] = draw("opo gain", 20.0, 100.0)
            params["escape_efficiency"] = draw("escape", 0.85, 0.98)
        elif experiment == "decohere":
            params["gain"] = draw("decohere gain", 20.0, 100.0)
            params["phase_noise_deg"] = draw("decohere jitter", 0.0, 3.0)
        elif experiment == "fit-loss":
            # Inside the fit's grid (loss <= 0.5, jitter <= 5 deg) and where
            # every sweep point stays squeezed (squeeze dB <= 0).
            gain = draw("fit gain", 30.0, 100.0)
            loss = draw("fit loss", 0.03, 0.15)
            jitter = draw("fit jitter", 0.0, 2.0)
            params["gain"] = gain
            params["measurements"] = [
                [added, *sweep_point_db(gain, loss, added, jitter)]
                for added in FIT_ADDED_LOSSES
            ]
            expect["truth"] = (loss, jitter)
    config = {
        "experiment": experiment,
        "parameters": params,
        "seed": rng.randrange(2**32),
        "output_format": "json" if workload == "model-json" else "csv",
    }
    return {"config": config, "expect": expect}


def rounds(workload: str, seed: int) -> list[list[dict]]:
    """The workload's pool of rounds, each a seeded permutation of its mix.

    Drawn parameters are stratified in blocks of STRATA rounds, so any run
    of at least one block covers each parameter's range evenly and the
    average cost of a round hardly depends on the seed.
    """
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_ROUNDS // STRATA):
        block: dict[str, list[float]] = {}
        for r in range(STRATA):

            def draw(key, lo, hi):
                if key not in block:
                    block[key] = _strata(rng, STRATA, lo, hi)
                return block[key][r]

            mix = list(WORKLOADS[workload])
            rng.shuffle(mix)
            pool.append([_op(rng, workload, name, draw) for name in mix])
    return pool
