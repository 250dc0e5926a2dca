"""Pinned report bytes: sha256 of stdout, with the exit code, for every
fixture under each CLI subcommand and format.

The determinism tests elsewhere compare two runs of one build. This table
compares against bytes produced by an earlier build, so a change that alters
any report, even in the last printed digit, fails here. A change that means
to alter report bytes re-pins the affected rows and says why.
"""

from __future__ import annotations

import hashlib

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
    ("disjoint.json", "classify"): (0, "b4330eea000e2b3f6523b49c33579828459ce103508c55d3828d99e5d3379b9d"),
    ("disjoint.json", "classify-text"): (0, "1ab4321255cf1e74b2bb99487d60d0fb1aca5622ac7c7420b1b0182a9b5c57af"),
    ("disjoint.json", "validate"): (0, "cb6e9a6e67d6203fecea7f8defee8c609775c7f56e92b8f93010c41c11328273"),
    ("disjoint.json", "info"): (0, "050bcb95946c9ac16ae5c58bffc0c7c55d4d981225a213acde118f4a6860c8ea"),
    ("disjoint.json", "info-joint"): (0, "0c30c96bafcd426feb61b745e3e2a1c9bc5e6f99079901daa74b336b51a2e4fa"),
    ("disjoint.json", "info-chain-text"): (0, "9380bb891393e15547b8ebdbd3538d11c6a070325894c4455ace3d0a8450d018"),
    ("disjoint.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("faucet_mixer_tap.json", "classify"): (0, "4d41e99ab2df006af98535caf2cf859fc8bec09ad7d39874ab81a1ae13916386"),
    ("faucet_mixer_tap.json", "classify-text"): (0, "d6e4880f97896c6fb4de4d27cbc91366f7a301422b687223c7e71a37706adc1b"),
    ("faucet_mixer_tap.json", "validate"): (0, "5e0fbdaa1adc98e96533bcb40fcd9e0c5971e76bfc6c63a981b1cc71774bb89f"),
    ("faucet_mixer_tap.json", "info"): (0, "950ed40c3fca2d08ebdd5c5ca1f806e4efb4103b5bb04b0d0555c788fe2da1d6"),
    ("faucet_mixer_tap.json", "info-joint"): (0, "8b6b3890b710db64e61e794e7b33919fddf8a14cfe59846944c8dc7c0958d557"),
    ("faucet_mixer_tap.json", "info-chain-text"): (0, "8c79453011503a40db8e461cefa0dcee4c0c333ac1cfec28d8de623d2c26e026"),
    ("faucet_mixer_tap.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("faucet_two_knob.json", "classify"): (2, "e1d97e815341121ee12ad57b059d697e3681150241c952844fd280d56391a78e"),
    ("faucet_two_knob.json", "classify-text"): (2, "293a797b2fb9a25f9f2f70ccdfb17c8e9d9dfe8f74d456e3d92c61da461e6c91"),
    ("faucet_two_knob.json", "validate"): (0, "e76837597ade02ffd9089933aa08f1c829180b5e2d2545ca777b36904b5af071"),
    ("faucet_two_knob.json", "info"): (0, "e7322e5bdb86fa40cf1628572c2afa66f137b2528ccbb0690c95f09d51691b92"),
    ("faucet_two_knob.json", "info-joint"): (0, "e7322e5bdb86fa40cf1628572c2afa66f137b2528ccbb0690c95f09d51691b92"),
    ("faucet_two_knob.json", "info-chain-text"): (0, "d37d486a61d76ef61daa9775fff05421a816ed618cdb51c6f3980a1ecb2446ce"),
    ("faucet_two_knob.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("machining_cascade.json", "classify"): (0, "292162ee7379941c56db6dbdaab03f21498ada08def89b4042a0ebd4fd240c3b"),
    ("machining_cascade.json", "classify-text"): (0, "50600008d1a9b726d7378ed1f0c1610496a5353e634f9a01171095118f74ed45"),
    ("machining_cascade.json", "validate"): (0, "eb408322b2b63b62fdc21c067b8dd5fd1c70a30a991bcea8181fdef2defa0841"),
    ("machining_cascade.json", "info"): (0, "cc5c0295a2e4bf0af69b8cf909c066752ba71eb446f7772b0fc7e32a5b9ba002"),
    ("machining_cascade.json", "info-joint"): (0, "db98a0cb9b3a5e0ebaae7994511d4172348876820824cd84d49b8f7b4ad2b161"),
    ("machining_cascade.json", "info-chain-text"): (0, "a5a9f4b4130ed9bdaf5a273332776076bd8c96bd72ccaf10b480153e1b8b011b"),
    ("machining_cascade.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("nonsquare.json", "classify"): (3, "a3de90a0c0df32597d01a49a00bde687e0ee3b0171990a1f1ca1422d92a56439"),
    ("nonsquare.json", "classify-text"): (3, "1920188aa8ce06feefe7cb3f0234e27cd05ee72f1d09740c3bb049e5a66a4ecc"),
    ("nonsquare.json", "validate"): (0, "2d7c9f10687cf562e9f0a6abfa351977259b873bc8f6ca3fb1dd884728bed6a1"),
    ("nonsquare.json", "info"): (0, "3cde6922cae55f81b433097ef376f3b077c0c38b73e47a753165adc56b3f6828"),
    ("nonsquare.json", "info-joint"): (0, "3cde6922cae55f81b433097ef376f3b077c0c38b73e47a753165adc56b3f6828"),
    ("nonsquare.json", "info-chain-text"): (0, "5b058f4b01d2fd196d92fce0cc30e701da358aa75cb55be8298a60ac361dc447"),
    ("nonsquare.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("rod_cutting.json", "classify"): (0, "48e358d968a208b371e6f3d58fd116df0207a51fc76be381df541b5a4f043d22"),
    ("rod_cutting.json", "classify-text"): (0, "e5071812d459d3abb0af0c33317e08721b89cae985301e94211ffcfaca5377ba"),
    ("rod_cutting.json", "validate"): (0, "1a79aea097447cf9f06818b80468730ae5e455a4657834fc12d65306b7abe34f"),
    ("rod_cutting.json", "info"): (0, "0b0f3655f73e225b3734e1332e00a9e55db7e940112c9c33e1cd5e903620ed18"),
    ("rod_cutting.json", "info-joint"): (0, "b0c046385b40580460ef5922c563d462e815f60d6a938e99f6ed3d729ff24c98"),
    ("rod_cutting.json", "info-chain-text"): (0, "010846df8908e800a5c35e78207214f78c503ca262025e77f4d5c41cd71f3948"),
    ("rod_cutting.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("scheduling.json", "classify"): (3, "7b0be4fd2b35fa4e8590f2f61ba7c2341954aca9618e5ffdd6770171cf98011f"),
    ("scheduling.json", "classify-text"): (3, "0c32dc5320a6862946a8e129bb562779896e52d20207034575168cdbfd6e216f"),
    ("scheduling.json", "validate"): (0, "6b7abf4db8aa23ca4b70b2b569823c432cd655b3ccaa7f3044e742ef3d87897e"),
    ("scheduling.json", "info"): (0, "3b9c0d5831bbf29acb0ff3c5ee671627bf509a28c1957a57fd00311d344e8e65"),
    ("scheduling.json", "info-joint"): (0, "f8fd2fc15f6d504458e247671e2e35979ce8a8b542c3779e8b434cf7273d17ff"),
    ("scheduling.json", "info-chain-text"): (0, "d97e8c8ad45d281ecffcd612a590600b3fb150978d74be215a127ebdcfe6c8ac"),
    ("scheduling.json", "simulate"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank.json", "classify"): (0, "3b926ce50c4d0c5723ad47e7f8eaf7e91716051525563b3131d0e720bdb3fa94"),
    ("tank.json", "classify-text"): (0, "323048fd0cacc6bebe04a37ca993dd9c18bb03ffa9a3599d5826e4f2af4e482c"),
    ("tank.json", "validate"): (0, "3c902d9aa5abc7ecbcbc89b71197d784f4001dfacd7e22bdd4403f1c174ff58c"),
    ("tank.json", "info"): (0, "782a16d55dd934c58650c88d21ee732c086f4df3d5e6c4bbe2afcf98b2b4dfad"),
    ("tank.json", "info-joint"): (0, "60dea7114be0fa87a9c670c4e2e79a90d7cc82c6586016dc96d46443c69c0825"),
    ("tank.json", "info-chain-text"): (0, "8495c04e1b3e0e94250277b706d4b9e8af84010261ca6f2af28510bdd2db30f0"),
    ("tank.json", "simulate"): (0, "86bac8899b088bc513a62107c11264e5a6c5f01e9f33f2e5bc2288241aa25f80"),
    ("tank_turbulent.json", "classify"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank_turbulent.json", "classify-text"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("tank_turbulent.json", "validate"): (0, "3c902d9aa5abc7ecbcbc89b71197d784f4001dfacd7e22bdd4403f1c174ff58c"),
    ("tank_turbulent.json", "info"): (0, "288f4e875434119ef67379161023edb4e7681151c195efddd066a9440e0b071c"),
    ("tank_turbulent.json", "info-joint"): (0, "288f4e875434119ef67379161023edb4e7681151c195efddd066a9440e0b071c"),
    ("tank_turbulent.json", "info-chain-text"): (0, "d0e9eca4012e4bb217a90da3e8ede54bb8f460d4a476add312791c860aa0f104"),
    ("tank_turbulent.json", "simulate"): (0, "cbb2eef2236378c5a698bfedf1ee1c8ed63bdb32d1263296ea020df247f3db25"),
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
