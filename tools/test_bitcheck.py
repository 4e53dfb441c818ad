"""Smoke test of the bit-identity harness: python -m pytest tools -q"""

import numpy as np

import bitcheck


def test_dump_then_compare(tmp_path):
    a = tmp_path / "a.npz"
    n = bitcheck.dump(a, seeds=[3], dynamic_seeds=[3], size="tiny")
    with np.load(a) as fa:
        arrays = dict(fa)
    assert len(arrays) == n
    assert str(arrays["s3/map0/report"]).startswith("{")
    assert arrays["moving_block_T0.4/f1/h"].dtype == np.float64
    nodes = arrays["s3/single_obstacle/band_nodes"]
    assert nodes.shape[0] == 3 and nodes.shape[1] > 0
    assert nodes.dtype == np.intp
    assert str(arrays["moving_block_T8/trajectory/termination"])
    assert bitcheck.main(["--compare", str(a), str(a)]) == 0

    # one ulp on one entry, a -0.0 for a 0.0, and an array only in B
    h = arrays["s3/single_obstacle/h"].copy()
    i = int(np.flatnonzero(h > 0)[0])
    h.flat[i] = np.nextafter(h.flat[i], np.inf)
    arrays["s3/single_obstacle/h"] = h
    g = arrays["s3/disk0/h"].copy()     # its ghost band holds 0.0
    g.flat[int(np.flatnonzero(g.view(np.int64) == 0)[0])] = -0.0
    arrays["s3/disk0/h"] = g
    arrays["extra"] = np.arange(3)
    b = tmp_path / "b.npz"
    np.savez(b, **arrays)
    same, lines = bitcheck.compare(a, b)
    assert not same
    assert lines[0] == (f"DIFFERENT: 2 of {n} shared arrays differ, 0 only "
                        f"in A, 1 only in B")
    moved = dict(line.strip().split(": ", 1) for line in lines[1:])
    assert moved["s3/single_obstacle/h"].startswith("max |a-b| ")
    assert ", max 1 ulps, " in moved["s3/single_obstacle/h"]
    assert moved["s3/disk0/h"].startswith("max |a-b| 0.000e+00, max 1 ulps")
    assert moved["extra"] == "only in B"
    assert bitcheck.main(["--compare", str(a), str(b)]) == 1
