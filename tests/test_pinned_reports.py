"""Pinned report bytes: sha256 of stdout, with the exit code, for every
fixture under each CLI subcommand and format, and for every demo script.

The determinism tests elsewhere compare two runs of one build. This table
compares against bytes produced by an earlier build, so a change that alters
any report, even in the last printed digit, fails here. A change that means
to alter report bytes re-pins the affected rows and says why.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import axdesign
from axdesign.cli import main

from conftest import FIXTURES

RUNS = {
    "classify": ["classify"],
    "classify-text": ["classify", "--format", "text"],
    "validate": ["validate"],
    "info": ["info", "--seed", "3", "--samples", "20000"],
    "info-joint": ["info", "--seed", "3", "--samples", "20000", "--method", "joint"],
    "info-chain-text": ["info", "--seed", "3", "--samples", "20000",
                        "--method", "chain", "--format", "text"],
    "simulate": ["simulate", "--cycles", "200", "--seed", "5"],
}

# (fixture, run) -> (exit code, sha256 of stdout). A failing command prints
# nothing, hence the digest of the empty string.
PINNED = {
    ("disjoint.json", "classify"): (0, "c04f7bf0d4aee2e3c172418979c31709f6cfd8f8b66347f6cb57e6a8f2b82978"),
    ("disjoint.json", "classify-text"): (0, "1ab4321255cf1e74b2bb99487d60d0fb1aca5622ac7c7420b1b0182a9b5c57af"),
    ("disjoint.json", "validate"): (0, "cb6e9a6e67d6203fecea7f8defee8c609775c7f56e92b8f93010c41c11328273"),
    ("disjoint.json", "info"): (0, "76e5bf6f7c7c8c0cda3eda42fea10a3d66e008c1e147f07c7f958338dccea0b5"),
    ("disjoint.json", "info-joint"): (0, "f161cce5940540b8aa9d916f9c1b5cb0547c8620a0395efdd56116ede2d44a66"),
    ("disjoint.json", "info-chain-text"): (0, "c68173f3836ac55cbfb494f973da52db96643b1d17aac2ec50600080671eb4fa"),
    ("disjoint.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("faucet_mixer_tap.json", "classify"): (0, "379e214e4abda84cd2bfe8586fbfb678f8a4330fc7913247275bf966d622faa5"),
    ("faucet_mixer_tap.json", "classify-text"): (0, "d6e4880f97896c6fb4de4d27cbc91366f7a301422b687223c7e71a37706adc1b"),
    ("faucet_mixer_tap.json", "validate"): (0, "5e0fbdaa1adc98e96533bcb40fcd9e0c5971e76bfc6c63a981b1cc71774bb89f"),
    ("faucet_mixer_tap.json", "info"): (0, "00e9a97ef7b38686546cd2cf8905b6c9e140dd3cb56f515fdb7ef31aa909fb66"),
    ("faucet_mixer_tap.json", "info-joint"): (0, "dbb0c598fe9327a82a355ea5c9c519e5351db47cd6fb930cb0253e829b30a4bf"),
    ("faucet_mixer_tap.json", "info-chain-text"): (0, "8c79453011503a40db8e461cefa0dcee4c0c333ac1cfec28d8de623d2c26e026"),
    ("faucet_mixer_tap.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("faucet_two_knob.json", "classify"): (2, "f3f1479207ba035ab1b830c5bf39cfbc56c52b86a56077a9834f891972b78108"),
    ("faucet_two_knob.json", "classify-text"): (2, "293a797b2fb9a25f9f2f70ccdfb17c8e9d9dfe8f74d456e3d92c61da461e6c91"),
    ("faucet_two_knob.json", "validate"): (0, "e76837597ade02ffd9089933aa08f1c829180b5e2d2545ca777b36904b5af071"),
    ("faucet_two_knob.json", "info"): (0, "d6eb0b67b7d3c25c51ede829626149ed0974d05a001f9eeae5007f725e20c090"),
    ("faucet_two_knob.json", "info-joint"): (0, "d6eb0b67b7d3c25c51ede829626149ed0974d05a001f9eeae5007f725e20c090"),
    ("faucet_two_knob.json", "info-chain-text"): (0, "d37d486a61d76ef61daa9775fff05421a816ed618cdb51c6f3980a1ecb2446ce"),
    ("faucet_two_knob.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("machining_cascade.json", "classify"): (0, "7cacbbacbd2726b33238b1d030616a1eb1c32be947df5fa04a334dc3594001c3"),
    ("machining_cascade.json", "classify-text"): (0, "50600008d1a9b726d7378ed1f0c1610496a5353e634f9a01171095118f74ed45"),
    ("machining_cascade.json", "validate"): (0, "eb408322b2b63b62fdc21c067b8dd5fd1c70a30a991bcea8181fdef2defa0841"),
    ("machining_cascade.json", "info"): (0, "9da57b2999e2bfb51a190deb337ccec2308de4b415bdb6c8d9da634af6395239"),
    ("machining_cascade.json", "info-joint"): (0, "33f0c154b9fd6b14c3bfb0d849a363f72098ed46c5c5bb97b354d766cfc7ab81"),
    ("machining_cascade.json", "info-chain-text"): (0, "a5a9f4b4130ed9bdaf5a273332776076bd8c96bd72ccaf10b480153e1b8b011b"),
    ("machining_cascade.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nonsquare.json", "classify"): (3, "cbc2ecd7f5517762b9a003630ba1c5d40def856891309bbe559f3ea6158fd288"),
    ("nonsquare.json", "classify-text"): (3, "1920188aa8ce06feefe7cb3f0234e27cd05ee72f1d09740c3bb049e5a66a4ecc"),
    ("nonsquare.json", "validate"): (0, "2d7c9f10687cf562e9f0a6abfa351977259b873bc8f6ca3fb1dd884728bed6a1"),
    ("nonsquare.json", "info"): (0, "cceac6cc47f44024df1567109197bdd365179ed97b80842b4164eaf006811047"),
    ("nonsquare.json", "info-joint"): (0, "cceac6cc47f44024df1567109197bdd365179ed97b80842b4164eaf006811047"),
    ("nonsquare.json", "info-chain-text"): (0, "9400d25dc2af9da630e68ed6843242d68f53881859a3d93b6d96726853e36304"),
    ("nonsquare.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("rod_cutting.json", "classify"): (0, "974819c11c04c85372716389ed37527939722ebc8b33e699ea60e27e292729b5"),
    ("rod_cutting.json", "classify-text"): (0, "e5071812d459d3abb0af0c33317e08721b89cae985301e94211ffcfaca5377ba"),
    ("rod_cutting.json", "validate"): (0, "1a79aea097447cf9f06818b80468730ae5e455a4657834fc12d65306b7abe34f"),
    ("rod_cutting.json", "info"): (0, "a4d966dee8cd46257c5f7a062980503d36788a65f819df9064f045173d3cf5fe"),
    ("rod_cutting.json", "info-joint"): (0, "c506c0f8c9e23183fcdecc918b20e5b15d2765287f8d0c77a1b49ae4e3890f41"),
    ("rod_cutting.json", "info-chain-text"): (0, "010846df8908e800a5c35e78207214f78c503ca262025e77f4d5c41cd71f3948"),
    ("rod_cutting.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("scheduling.json", "classify"): (3, "882baa44c3c844acfc66bb9d6437c6fd30adae473ee61f068aefe11788a2fc51"),
    ("scheduling.json", "classify-text"): (3, "0c32dc5320a6862946a8e129bb562779896e52d20207034575168cdbfd6e216f"),
    ("scheduling.json", "validate"): (0, "6b7abf4db8aa23ca4b70b2b569823c432cd655b3ccaa7f3044e742ef3d87897e"),
    ("scheduling.json", "info"): (0, "b1548ad9b9ddcc04bee44b12608ea29f150e02c843e45321ac60f3f00166c415"),
    ("scheduling.json", "info-joint"): (0, "17df66f60761789b9379046d3ba957eabec7322d590e66506a062702ffdbcb68"),
    ("scheduling.json", "info-chain-text"): (0, "e4956d6834e69e407a81ac971673c266f2658e902c3c8711890a88ef103cf4ff"),
    ("scheduling.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank.json", "classify"): (0, "b1ba60a3fb449a7212757ff3dae9f35914888f5aa393c4805316ab8146e62d3c"),
    ("tank.json", "classify-text"): (0, "323048fd0cacc6bebe04a37ca993dd9c18bb03ffa9a3599d5826e4f2af4e482c"),
    ("tank.json", "validate"): (0, "3c902d9aa5abc7ecbcbc89b71197d784f4001dfacd7e22bdd4403f1c174ff58c"),
    ("tank.json", "info"): (0, "cbf5ae4ae1e932c02b0a94c18c395f297e8a0486dc12dc5d64de0a74d37eb701"),
    ("tank.json", "info-joint"): (0, "715693c55e159bf05ff424705b7a3b99111ce17325ca3f41fa3a0bef7bb3e1ef"),
    ("tank.json", "info-chain-text"): (0, "8495c04e1b3e0e94250277b706d4b9e8af84010261ca6f2af28510bdd2db30f0"),
    ("tank.json", "simulate"): (0, "68988d061f29f3af3cb277d02a2551e5e5921c95313d9514795f40371685bea5"),
    ("tank_turbulent.json", "classify"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank_turbulent.json", "classify-text"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank_turbulent.json", "validate"): (0, "3c902d9aa5abc7ecbcbc89b71197d784f4001dfacd7e22bdd4403f1c174ff58c"),
    ("tank_turbulent.json", "info"): (0, "362c81691951b07ee35a91c0eb43c680df90085275935eb9cf8918df0eccaf10"),
    ("tank_turbulent.json", "info-joint"): (0, "362c81691951b07ee35a91c0eb43c680df90085275935eb9cf8918df0eccaf10"),
    ("tank_turbulent.json", "info-chain-text"): (0, "1aaf53e8561a03e2fa97fc754ddf9b11a9812b1030ed36e83e83f6c90ccc09e2"),
    ("tank_turbulent.json", "simulate"): (0, "972fd0719a6501c7a62d5ca085913bdaee1f749918c657bc6bea50bc02498cda"),
}


def test_reports_match_pinned_digests(capsys):
    fixtures = [path.name for path in FIXTURES.glob("*.json")]
    assert set(PINNED) == {(name, run) for name in fixtures for run in RUNS}
    changed = []
    for (name, run), expected in sorted(PINNED.items()):
        command, *flags = RUNS[run]
        code = main([command, str(FIXTURES / name), *flags])
        out = capsys.readouterr().out
        got = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
        if got != expected:
            changed.append((name, run, got))
    assert changed == []


DEMOS = FIXTURES.parent / "demos"

# demo script -> sha256 of its stdout.
PINNED_DEMOS = {
    "classify_designs.py": "da3c041b9935d01fdedd2ca67a15af0ae15f0bad8edc0ff5533c24347bdfda42",
    "joint_vs_chain.py": "b739d87610648dad3ddebb26a801552d3a6f44f303d654a20d42a966063c2dcf",
    "tank_walkthrough.py": "05ba1bfb66f79b5ec948b52e25aad9ea66d7c99aa6430d709ac5bdc9f5c086b4",
    "tolerance_bits.py": "3db5db5a412db3adc66ae0fcc46183a7e0713903f49273bd8c67132d76313a2b",
}


def test_every_demo_is_pinned():
    assert set(PINNED_DEMOS) == {path.name for path in DEMOS.glob("*.py")}


@pytest.mark.parametrize("name", sorted(PINNED_DEMOS))
def test_demo_stdout_matches_pinned_digest(name):
    src = str(Path(axdesign.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert result.returncode == 0, result.stderr.decode()
    assert hashlib.sha256(result.stdout).hexdigest() == PINNED_DEMOS[name]
