"""Golden reports: SHA-256 digests of the deterministic reports of three
subcommands at the default seed.

The other report tests compare two runs of the same code with each other;
these pin the bytes themselves, so a change that moves a float digit or a
key fails here.  A deliberate change of the reports re-records the digests
below.
"""

import hashlib

import pytest

from suspvdp.cli import main

GOLDEN = [
    (["criterion", "--scenario", "plane", "--samples", "200"], {
        "criterion.json":
            "bad93022247407cff9d472f86a35574d186727dac2855c57c2234c32af42f594",
        "ranks.csv":
            "3abafe8fcbb9047c1dfdfda0c56b1bbeba8befc471b9b5122b325516bca7dfc2",
    }),
    (["approx", "--scenario", "plane"], {
        "approx.json":
            "5d510bcba7b7c7be07f0a273cf77ee3630de26cb53cfc291af78de55cd33b120",
        "residuals.csv":
            "fbb3bf8dcde2e32cbd1bf52880f1ca16baf410157b9739cae829298020547da4",
        "flow_audit.csv":
            "b7487291a68d9848e5ef5e83476cb465cfa73f7d30344f78927fbc0396c7e775",
    }),
    (["flow", "--scenario", "hyperbola"], {
        "flow.json":
            "a10d1879a848cb10797b5934d62bf87b5eae54ef3656751b6dd433995e302433",
        "flow_errors.csv":
            "cbd2c959dacbeefbb5edeca7a370a8f7a4741b94c200a56d71887a662badb371",
    }),
]


@pytest.mark.parametrize("args, digests", GOLDEN, ids=[
    "criterion-plane", "approx-plane", "flow-hyperbola"])
def test_reports_match_golden_digests(tmp_path, args, digests):
    assert main([*args, "--out", str(tmp_path), "--no-figures"]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
