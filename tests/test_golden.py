"""Golden digests: a change to a scheduling rule, the channel trace or the
output format that moves one decision or one output byte fails here.

A decisions digest is the SHA-256 of ``SimResult.decisions`` as
little-endian int64, so a change of the array's dtype alone does not change
it.  The tree digest hashes every file that ``schedsim run`` writes at
defaults (``config.txt`` included), in sorted path order; it equals the
``single_run`` tree digest pinned in ``bench/pinned.json``.
"""
import hashlib

import numpy as np
import pytest

from schedsim.cli import main, parse_config
from schedsim.engine import SimConfig, run

DEFAULT_DIGESTS = {
    ("pfa", 0): "0f74a27b4dba8ba1bdeed985576f6cb1432815e679d996e32b7f11fa0973cd9f",
    ("pfa", 1): "ba5754650bb010fcde1d14da3bb74e351bb32e13686e6ddabb85742fef77c919",
    ("pfa", 2): "d4416ba3982202079371d6eefaed9a6cacf84a768cfb38e58223107aa491c6bc",
    ("dpfa", 0): "58922331125a5ae8735ceeef69686716c6c9634336b8b07ff7ec8fd6987d572a",
    ("dpfa", 1): "82fb4169c3d9d641752922e52b73c91c2723f47be7fa001659faacca1477cf21",
    ("dpfa", 2): "8101493ba9e889c94db05dbd1fc22a9ff18144f5084c6f614e27c6eb36c2dd0f",
    ("maxci", 0): "bf301b9ac6f81d76f756b8718a7a0819b16e1f396c946eaee7c3877b904a270e",
    ("maxci", 1): "bfb61dc789e75eab2dc3aebaaf043fd0728035afce21bdec11685b67b3cc6384",
    ("maxci", 2): "8535071c185512b675a89d3ab6f47e1087ccfa22f6491e8cf83cb4f33d216176",
    ("rr", 0): "bc7f646e423bf6c16bd5e506d314cef166a21919dea7e562611e73165279d9b9",
    ("rr", 1): "bc7f646e423bf6c16bd5e506d314cef166a21919dea7e562611e73165279d9b9",
    ("rr", 2): "bc7f646e423bf6c16bd5e506d314cef166a21919dea7e562611e73165279d9b9",
    ("vpfa", 0): "2c860f38b95f830d2b33161e16e27f5ae9cdcacf1889bc954dee66ba60e5459e",
    ("vpfa", 1): "8f2a1cb701334692868b4b73a1aab3912375a4e351805fa78ee5981966c5a86e",
    ("vpfa", 2): "6dcde9de95d7c6dd4c1b19c40f43c607381b34187def80667363e2876317a75f",
}

# One seed of each knob that reaches the per-slot rules, over 5k slots.
# (id, policy, extra key=value overrides, digest)
VARIANT_SLOTS = 5000
VARIANT_SEED = 1
VARIANTS = [
    ("growing_tc-pfa", "pfa", ["tc_mode=growing"],
     "93d0e617f4114ddf4dedd6c4eef6abdf068d6594fd74aee89f781903144ca090"),
    ("growing_tc-dpfa", "dpfa", ["tc_mode=growing"],
     "c7e55a3ef941a9597c458768b1a56696873f81a368cece24bc128c955d2784c4"),
    ("growing_tc-vpfa", "vpfa", ["tc_mode=growing"],
     "f0dbcf53bfde17a8e79c7251517974dfdde9de28e8d6c3b3be37cc65ec8e6cd1"),
    ("beta_override", "dpfa", ["dpfa_beta_override=1.0"],
     "d36792fe53caea942524759812a66100b13e284a0364fa8d1895fbb171cdc400"),
    # the digest it had with dpfa_b=0.3: the exponent floor never bound
    ("alpha_theta", "dpfa", ["dpfa_alpha=0.8", "dpfa_theta=5"],
     "c987415b2a6fa98d5f87361200c74a19ad44bfcc00872f19b2628ac746ed5c7b"),
    ("signed_stability", "vpfa", ["vpfa_signed_stability=true"],
     "3cf08c14d8a943e73f9914918859d5747396fc5edbbc5f3b95921382fb39ecb9"),
    ("uniform_ring-pfa", "pfa", ["placement=uniform_ring", "n_users=50"],
     "70c584273d416dba309b118f616d1bbb23f4eeae91b68ff06e32a0649e7a5e6d"),
    ("uniform_ring-dpfa", "dpfa", ["placement=uniform_ring", "n_users=50"],
     "5ea61a384c4a91a47ec51be1f530e77c62314ee640d2b037610d616324dfe089"),
    ("uniform_ring-maxci", "maxci", ["placement=uniform_ring", "n_users=50"],
     "a4b0a357c20879abc863bb9307688c45c603aca21eb7f7ef00851ab18111a46d"),
    ("uniform_ring-rr", "rr", ["placement=uniform_ring", "n_users=50"],
     "2e4070616e31a33f8e38110e2e72e70269e87066af7b10a9aaa93653c75f9bc2"),
    ("uniform_ring-vpfa", "vpfa", ["placement=uniform_ring", "n_users=50"],
     "265094685a1ede679a3914ec3ec704f1613cd57555ba33136f7e157619502076"),
]

RUN_TREE_DIGEST = "b7ccf2fe9f3331af0d0e17b3cee53d8ecaa37c4723f62e3a2cea091cc3e2c673"


def decisions_digest(decisions) -> str:
    arr = np.ascontiguousarray(np.asarray(decisions), dtype="<i8")
    return hashlib.sha256(arr.tobytes()).hexdigest()


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        h.update(rel.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize(
    "policy,seed,digest",
    [(p, s, d) for (p, s), d in DEFAULT_DIGESTS.items()],
    ids=["%s-seed%d" % key for key in DEFAULT_DIGESTS],
)
def test_default_decisions(policy, seed, digest):
    assert decisions_digest(run(SimConfig(policy=policy, seed=seed)).decisions) == digest


@pytest.mark.parametrize(
    "policy,overrides,digest",
    [case[1:] for case in VARIANTS],
    ids=[case[0] for case in VARIANTS],
)
def test_variant_decisions(policy, overrides, digest):
    config = parse_config(
        "",
        overrides=[
            "policy=%s" % policy,
            "seed=%d" % VARIANT_SEED,
            "total_slots=%d" % VARIANT_SLOTS,
            *overrides,
        ],
    )
    assert decisions_digest(run(config).decisions) == digest


def test_run_output_tree(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    assert tree_digest(out) == RUN_TREE_DIGEST
