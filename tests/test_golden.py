"""Golden digests: a change to a scheduling rule, the channel trace or the
output format that moves one decision or one output byte fails here.

A run draws its trace a block at a time and decides each block as it is
drawn; the default and variant digests also hold a run that holds the
whole trace in one block, drawn by one ``draw_fast_fading`` call.

A decisions digest is the SHA-256 of ``SimResult.decisions`` as
little-endian int64, so a change of the array's dtype alone does not change
it.  The tree digest hashes every file that ``schedsim run`` writes at
defaults (``config.txt`` included), in sorted path order; it equals the
``single_run`` tree digest pinned in ``bench/pinned.json``.
"""
import hashlib

import numpy as np
import pytest

import schedsim.engine as engine
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

# vpfa across user counts, 2k slots: the variance phase's least-served rule
# at one, two and three users and at 50 and 200 (at 200 users seed 1 does
# not switch within 2k slots).  (n_users, seed) -> digest
VPFA_SLOTS = 2000
VPFA_DIGESTS = {
    (1, 0): "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    (1, 1): "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    (1, 2): "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    (1, 3): "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    (1, 4): "f85f2c34eb2843d2aa5951ee6e8e76985655b2e3ae2cbdd76bdfd654ecf19997",
    (2, 0): "e53d93ccf37c5f4d4a4f628b77254182b3e26fbf37211e78a99fe39c0800cd47",
    (2, 1): "38e420de6f61e35af44c622de8f426d386cd17f74a5fa4f7bd0ee921fa68de21",
    (2, 2): "db2fbde991117d3e83a48ca250c4be981d8460ccf14decdf6ac0ca592f7a991e",
    (2, 3): "fcb036ce9214d2c2e0630482deaa8d1fd644702fb2dacb7a9a680b486ef7b288",
    (2, 4): "e8b92880c902a1fabccd646aa73130c012022e9b7f63d9520c16fdf7c8740613",
    (3, 0): "22197c7f606ff4c898fc397fe8226e415437ddff7c6c43f401a85490e3b11abf",
    (3, 1): "baaa530982503733f45bdf63268f3d424e35eb942248f1c228826c085bf96964",
    (3, 2): "1551fab7226e591d6e6e4e71bf72463251f55bd7f92d20bd5dd897cb4179e1c4",
    (3, 3): "4f31c17315ada1db305d028f74db420abae2f5bb3b270f846a4fea4f1438cfbc",
    (3, 4): "d93c04e85a0a06e840674321b5cbf9ea7361d894b7fe6357003c14e1e7b5554d",
    (50, 0): "bb772cc29e97a2e93bfc7949277d3ffa20993216ecffe7ca33f26af7a8b82a42",
    (50, 1): "30c39c7f4eec173adc061fcaf9a2414c48f93a8283028ad491c075ad548e17cf",
    (50, 2): "a08d703f9c4650206ce566b897a3e86cd4c742dfa029a3eebb622aecf1a52958",
    (50, 3): "e1ac0126ccfdcd31382834274d49abc5d0b67ef28c36b33ae4689e574fa99ece",
    (50, 4): "95375658d4c5434226939da6b3cb7f4ed3174b62a72f07e23ae0c826908a7662",
    (200, 0): "e2a5efb271d8b546b968af4e21f6c264ed59f8f27cfb92a69ad355906fbfdf20",
    (200, 1): "819c7462a2187f6d1f1c3c8186611595afbdc46ae0a814cce0465403017a7a6c",
    (200, 2): "0e1ec0ba303112e15491f49129b79336349ca12acca48a3d74ad5921acc7c999",
    (200, 3): "b712f1eedee9f0872325a780f09a55d85ee2ee7f6e2123cd4aac46803f0a247b",
    (200, 4): "e29d1f51b97a6790ca33dc326795009a227fb14887315c4117001ef608525d23",
}

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


@pytest.mark.parametrize(
    "policy,seed,digest",
    [(p, s, d) for (p, s), d in DEFAULT_DIGESTS.items()],
    ids=["%s-seed%d" % key for key in DEFAULT_DIGESTS],
)
def test_default_decisions_from_a_held_trace(policy, seed, digest, monkeypatch):
    config = SimConfig(policy=policy, seed=seed)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", config.n_users * config.total_slots)  # one whole block
    assert decisions_digest(run(config).decisions) == digest


@pytest.mark.parametrize(
    "policy,overrides,digest",
    [case[1:] for case in VARIANTS],
    ids=[case[0] for case in VARIANTS],
)
def test_variant_decisions_from_a_held_trace(policy, overrides, digest, monkeypatch):
    config = parse_config("", overrides=["policy=%s" % policy, "seed=%d" % VARIANT_SEED,
                                         "total_slots=%d" % VARIANT_SLOTS, *overrides])
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", config.n_users * config.total_slots)  # one whole block
    assert decisions_digest(run(config).decisions) == digest


@pytest.mark.parametrize(
    "n_users,seed,digest",
    [(n, s, d) for (n, s), d in VPFA_DIGESTS.items()],
    ids=["n%d-seed%d" % key for key in VPFA_DIGESTS],
)
# the 200-user line puts its nearest users inside the path-loss model's floor
@pytest.mark.filterwarnings("ignore:distance .* below")
def test_vpfa_decisions_across_user_counts(n_users, seed, digest):
    config = SimConfig(policy="vpfa", seed=seed, n_users=n_users, total_slots=VPFA_SLOTS)
    assert decisions_digest(run(config).decisions) == digest


def test_run_output_tree(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    assert tree_digest(out) == RUN_TREE_DIGEST
