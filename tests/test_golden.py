"""Golden reports: SHA-256 digests of the deterministic reports of three
subcommands at the default seed, `criterion` on all four bundled
scenarios (hyperbola also at degree bound 6), `approx` on plane and
danielewski, and `flow` on both the closed-form path (plane, danielewski,
hyperbola) and the numeric one.

The other report tests compare two runs of the same code with each other;
these pin the bytes themselves, so a change that moves a float digit or a
key fails here.  A deliberate change of the reports re-records the digests
below.
"""

import hashlib

import pytest

from suspvdp.cli import main

GOLDEN = [
    (["criterion", "--scenario", "plane", "--samples", "200"], 0, {
        "criterion.json":
            "bad93022247407cff9d472f86a35574d186727dac2855c57c2234c32af42f594",
        "ranks.csv":
            "3abafe8fcbb9047c1dfdfda0c56b1bbeba8befc471b9b5122b325516bca7dfc2",
    }),
    (["criterion", "--scenario", "hyperbola"], 1, {
        "criterion.json":
            "b704ab3e0123281bc52a460d1d5051bcda36199fe94890474884318c45358d81",
        "ranks.csv":
            "c396f99eb413790ae8b7eeab74820118316ba6ec17be13991ebe1b809c083b16",
    }),
    # the benchmark's certify-deep workload: the exact core at degree 6
    (["criterion", "--scenario", "hyperbola", "--degree-bound", "6"], 1, {
        "criterion.json":
            "db3d9b3069433a8ba05ea4d84a4afa91c53c5e984518fb3d429a721c759b841e",
        "ranks.csv":
            "c396f99eb413790ae8b7eeab74820118316ba6ec17be13991ebe1b809c083b16",
    }),
    (["criterion", "--scenario", "circle"], 1, {
        "criterion.json":
            "f185861db9ea74f851f6f7cb67ac00970beebbe21ed94d7f9e6dceb6601c9aa1",
        "ranks.csv":
            "88add4eddd7d2ec917577ea099c4963cc3c99fabf6dbd570c020f21cf5d661c9",
    }),
    (["criterion", "--scenario", "danielewski"], 0, {
        "criterion.json":
            "3b7138c958ac8fd5c345c05e32779042fe90e591cfcc43f94922cba71a3a1ca7",
        "ranks.csv":
            "09d97f1b90f761cc613da37b01f839471eca037e37699f5853dffd0dd2572c22",
    }),
    (["approx", "--scenario", "plane"], 0, {
        "approx.json":
            "5d510bcba7b7c7be07f0a273cf77ee3630de26cb53cfc291af78de55cd33b120",
        "residuals.csv":
            "fbb3bf8dcde2e32cbd1bf52880f1ca16baf410157b9739cae829298020547da4",
        "flow_audit.csv":
            "b7487291a68d9848e5ef5e83476cb465cfa73f7d30344f78927fbc0396c7e775",
    }),
    # the volume audit's fiber-0 chart on a second surface, n = 1
    (["approx", "--scenario", "danielewski"], 0, {
        "approx.json":
            "9c0997f2b05c50391f8c6da7e93483e94e2c77956abbdf79e78464c2c9a761e0",
        "residuals.csv":
            "222787714c4f9f8959db688a5f7ace7045615ba46e26e7db8fe912270a7b7318",
        "flow_audit.csv":
            "b4f271f6aa7b9378e6189150a72886324536b365752c6d14a69b61e3194f6a36",
    }),
    # the closed-form flows on the other two exact scenarios
    (["flow", "--scenario", "plane"], 0, {
        "flow.json":
            "f074335bbd2ee5543939bea5822e583430cc6b4b5b36adc27c12def2866df296",
        "flow_errors.csv":
            "37c0ac0c54d53d58009d8bdd31d690946c1c53877420549e1ade411a74161001",
    }),
    (["flow", "--scenario", "danielewski"], 0, {
        "flow.json":
            "df557ed9c1c61338e2a78f9f3645b0c768d33019a49f307d3dd430246b7bdb04",
        "flow_errors.csv":
            "e7293a8c1ed383e62a44642027759ea5c3d710500420fc4c88f22bc921a76ffb",
    }),
    (["flow", "--scenario", "hyperbola"], 0, {
        "flow.json":
            "a10d1879a848cb10797b5934d62bf87b5eae54ef3656751b6dd433995e302433",
        "flow_errors.csv":
            "cbd2c959dacbeefbb5edeca7a370a8f7a4741b94c200a56d71887a662badb371",
    }),
    # the numeric fallback: compiled lift, RK4 and chart determinants
    (["flow", "--scenario", "circle", "--samples", "6"], 0, {
        "flow.json":
            "31955c60a0d0610a437008c502b150488b7de97b086fa51e10f80c3857eca9c2",
        "flow_errors.csv":
            "6fff85a4a63d8fd5c8addc5db72abc33c3bd0b82f93b2fc99fa330ae5ef94931",
    }),
]


@pytest.mark.parametrize("args, code, digests", GOLDEN, ids=[
    "criterion-plane", "criterion-hyperbola", "criterion-hyperbola-6",
    "criterion-circle",
    "criterion-danielewski", "approx-plane", "approx-danielewski",
    "flow-plane", "flow-danielewski", "flow-hyperbola", "flow-circle-6"])
def test_reports_match_golden_digests(tmp_path, args, code, digests):
    # hyperbola and circle leave the cohomology hypothesis unasserted, so
    # their verdict is inconclusive and the exit code 1
    assert main([*args, "--out", str(tmp_path), "--no-figures"]) == code
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
