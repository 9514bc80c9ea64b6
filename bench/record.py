"""Record the lattice-sum values the benchmark checks its runs against.

    python3 bench/record.py

Draws the fixed input pools the workloads pick from (a fixed seed, so the
pools never change), evaluates every lattice sum with the program as it
stands, and writes bench/reference_values.json.  Run it only when a change
is meant to alter these values, and say so in the change; a run that differs
from a recorded value by more than 1e-12 relative counts as failed.  Takes
under a minute on two cores.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import GL3_EVAL_HEIGHT, REFERENCE_FILE, _c  # noqa: E402

POOL_SIZE = 8


def _real_s(rng):
    s1, s2 = rng.uniform(1.4, 2.2), rng.uniform(-0.15, 0.15)
    return [s1, s2, -s1 - s2]


def _complex_s(rng):
    s = _real_s(rng)
    t1, t2 = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    return [complex(s[0], t1), complex(s[1], t2), complex(s[2], -t1 - t2)]


def _diagonal(y1, y2):
    return [[y1 * y2, 0.0, 0.0], [0.0, y1, 0.0], [0.0, 0.0, 1.0]]


def _unipotent(x12, x13, x23, y1, y2):
    u = np.array([[1.0, x12, x13], [0.0, 1.0, x23], [0.0, 0.0, 1.0]])
    return (u @ np.array(_diagonal(y1, y2))).tolist()


def _pools(rng, y_range, x_range):
    real = [{"s": _real_s(rng), "g": _diagonal(rng.uniform(*y_range),
                                                 rng.uniform(*y_range))}
            for _ in range(POOL_SIZE)]
    cplx = [{"s": _complex_s(rng),
             "g": _unipotent(*(rng.uniform(*x_range) for _ in range(3)),
                             rng.uniform(*y_range), rng.uniform(*y_range))}
            for _ in range(POOL_SIZE)]
    return real, cplx


def main() -> None:
    from eiskit import (FWRequest, FormSet, GroupElement, Partition,
                        SpectralPoint, const_form, eval_eisenstein,
                        extract_fourier_coefficient)

    borel3 = Partition((1, 1, 1))

    def eval3(entry):
        return eval_eisenstein(3, GroupElement(np.array(entry["g"])),
                               SpectralPoint(tuple(entry["s"]), borel3),
                               GL3_EVAL_HEIGHT)[0]

    def finish(entry, value):
        print(f"  {value}", flush=True)
        return {"s": [_c(complex(v)) for v in entry["s"]], "g": entry["g"],
                "value": _c(value)}

    rng = random.Random(20231009)
    eval_real, eval_cplx = _pools(rng, (0.8, 1.25), (-0.5, 0.5))
    out = {"gl3_eval": {}, "gl2": {}}
    print("gl3 evaluation", flush=True)
    out["gl3_eval"]["real_diagonal"] = [finish(e, eval3(e))
                                        for e in eval_real]
    out["gl3_eval"]["complex_unipotent"] = [finish(e, eval3(e))
                                            for e in eval_cplx]

    borel2 = Partition((1, 1))
    forms2 = FormSet((const_form(),) * 2)
    for key, s1, m in (("extract-gl2-readme", 1.5, 1),
                       ("extract-gl2-s2-m2", 2.0, 2)):
        req = FWRequest(borel2, forms2, (m,),
                        SpectralPoint.from_leading(borel2, [s1]),
                        GroupElement.identity(2))
        out["gl2"][key] = _c(extract_fourier_coefficient(
            2, req, height=500, quad_nodes=64))
    out["gl2"]["eval-gl2-readme"] = _c(eval_eisenstein(
        2, GroupElement.identity(2),
        SpectralPoint.from_leading(borel2, [1.5]), 100)[0])
    REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
