"""Set-up probe: one fresh interpreter that imports empint, validates a
workload config and builds its space, family and member tables through the
package's public constructors, then exits.  Its spawn-to-exit wall time is
the benchmark's setup_s, so work a change moves into import or construction
shows there.

Usage (from the repository root): PYTHONPATH=src python perfbench/probe.py CONFIG
"""
import sys

import empint
import numpy as np
from empint.cli import load_config


def main(path: str) -> None:
    cfg = load_config(path)
    exp = cfg["experiment"]
    if exp == "chaos_audit":
        spec = cfg["coefficients"]
        empint.ChaosCoefficients(
            n=cfg["n"], k=cfg["k"],
            index_tuples=np.asarray(spec["index_tuples"], dtype=np.int64),
            values=np.asarray(spec["values"], dtype=float))
        return
    space = empint.uniform_space(cfg["space"]["points"])
    if exp != "sup_tail":
        return
    fam = cfg["family"]
    if fam["kind"] == "interval":
        family = empint.interval_family(float(fam["sigma"]), fam["grid"])
    else:
        f = empint.KernelFunction(np.asarray(fam["table"], dtype=float))
        family = empint.BoxRestrictionFamily(f, space.m)
    np.array([member.table.ravel() for member in family.members])
    family.unique_tables()


if __name__ == "__main__":
    main(sys.argv[1])
