"""CLI standard output pinned byte for byte.

Each invocation runs ``persloc.cli.main`` in process, from a scratch
directory holding a copy of ``fixtures/`` and three generated module files,
and compares the exit code and the SHA-256 of standard output with the values
stored in ``GOLDEN``.  Any change to a report's bytes (key order, scalar
spelling, pivot choices, basis vectors, error messages) fails here.  When a
report is meant to change, regenerate the table with

    PYTHONPATH=src python tests/test_golden_cli.py

and say why in the commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from persloc import cli

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# module files written by the CLI itself before the pinned invocations run
GENERATED = {
    "rand2.json": "random --seeds 3,4 --params m=2,max_gens=6,max_rels=9,max_degree=5",
    "rand2q.json": "random --seeds 5 --params m=2,max_gens=5,max_rels=8,max_degree=4 --char 0",
    "rand3.json": "random --seeds 2 --params m=3,max_gens=4,max_rels=5,max_degree=2",
}

_M2 = ["fixtures/samerank_M.json", "fixtures/samerank_N.json", "fixtures/coordinate_cross.json",
       "samerank_m", "samerank_n", "coordinate_cross", "quadrant:1,1", "vstrip:0,2", "hstrip:1,3",
       "rand2.json", "rand2q.json"]
_M3 = ["fixtures/m3_indecomposable.json", "m3_indecomposable", "rand3.json"]
_MAPS = ["fixtures/notsplit_map.json", "fixtures/split_projection_map.json",
         "notsplit_map", "split_projection"]
_COMPLEXES = ["skeleton:3:0", "skeleton:3:1", "full:2", "empty:3", "skeleton:4:-1"]


def _invocations() -> list[str]:
    out = []
    for mod in _M2:
        out += [
            f"dims {mod}",
            f"dims {mod} --sigma 1",
            f"dims {mod} --box 3,2 --sigma 2",
            f"rank {mod} 0,0 2,2",
            f"rank {mod} 1,0 1,3",
            f"rank {mod} 0,1 0,1 --sigma 1",
            f"ibar {mod} 1,0 0,1 2,2",
            f"barcode {mod} --axis 1",
            f"barcode {mod} --axis 2",
            f"decompose {mod}",
            f"decompose {mod} --reconstruct",
            f"delocalize {mod}",
            f"support {mod}",
            f"in-kernel {mod} skeleton:2:0",
            f"in-kernel {mod} full:2",
        ]
    out += ["decompose samerank_m --svg out.svg", "decompose samerank_m --same-as samerank_n",
            "decompose fixtures/samerank_M.json --same-as fixtures/samerank_N.json"]
    for mod in _M3:
        out += [
            f"dims {mod}",
            f"rank {mod} 0,0,0 2,2,2",
            f"support {mod}",
            f"in-kernel {mod} skeleton:3:0",
            f"quiverize {mod} -n 2",
            f"endo {mod} -n 2",
            f"indec {mod} -n 2",
            f"split-legs {mod} -n 2",
        ]
    out += ["quiverize rand3.json -n 1", "split-legs rand3.json -n 1"]
    for pmap in _MAPS:
        out.append(f"section-exists {pmap}")
    for k in _COMPLEXES:
        out += [f"face-ring {k}", f"face-ring {k} --all-missing", f"simples {k}",
                f"kdim {k}", f"serre-step {k}", f"serre-step {k} --iterate"]
    out += [
        "random --seed 7 --params m=2,max_gens=4",
        "random --seeds 1,2,3 --params m=3,max_gens=3,max_degree=3 --shift 1,0,2",
        "random --seed 11 --char 0",
        "verify-paper --list",
        "verify-paper",
        # the rationals and F_2 through the exact kernels
        *(f"{cmd} --char {p}" for p in (0, 2) for cmd in (
            "decompose samerank_m", "decompose samerank_n", "decompose coordinate_cross",
            "decompose vstrip:0,2", "endo m3_indecomposable -n 2", "endo m3_indecomposable -n 1",
            "indec m3_indecomposable -n 2", "indec m3_indecomposable -n 1",
            "section-exists notsplit_map", "section-exists split_projection",
        )),
        # domain and usage envelopes (not argparse failures)
        "rank samerank_m 1,1 0,0",
        "dims no_such_example",
        "quiverize samerank_m -n 1",
        "in-kernel samerank_m full:3",
        "random --seed 1 --params bogus=3",
        "endo samerank_m",
    ]
    return out


INVOCATIONS = _invocations()


def _run(line: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(line.split())
    return code, buf.getvalue()


def _prepare(workdir: Path) -> None:
    shutil.copytree(FIXTURES, workdir / "fixtures")
    for name, line in GENERATED.items():
        code, out = _run(line)
        assert code == 0, (line, out)
        (workdir / name).write_text(out, encoding="utf-8")


def _record(line: str) -> str:
    code, out = _run(line)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if line.endswith("--svg out.svg"):
        digest += ":" + hashlib.sha256(Path("out.svg").read_bytes()).hexdigest()
    return f"{code}:{digest}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    here = os.getcwd()
    os.chdir(path)
    try:
        _prepare(path)
        yield path
    finally:
        os.chdir(here)


def test_golden_table_covers_every_invocation():
    assert sorted(GOLDEN) == sorted(INVOCATIONS)


def test_golden_table_covers_every_subcommand():
    used = {line.split()[0] for line in INVOCATIONS + list(GENERATED.values())}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if getattr(a, "choices", None))
    assert used == set(sub.choices)


@pytest.mark.parametrize("line", INVOCATIONS)
def test_cli_stdout_matches_golden(workdir, line):
    assert _record(line) == GOLDEN[line]


GOLDEN: dict[str, str] = {
    'dims fixtures/samerank_M.json': '0:ce8f6c07e51900340c0af77d42a60a65541bbc4385d9720e6d7088f0b2a639eb',
    'dims fixtures/samerank_M.json --sigma 1': '0:6e6ff01e82e6168facb9e210480f215e5d6c5f147997b29edae1d820b71623ec',
    'dims fixtures/samerank_M.json --box 3,2 --sigma 2': '0:0e7e9bf2176e5353f8df27777840b2661df1a3edb950a41784045246082efd40',
    'rank fixtures/samerank_M.json 0,0 2,2': '0:6a13b718aec0ec30db0bff577afa56eb9e867c66e1c5b5d37bf4ae846b7cdaa6',
    'rank fixtures/samerank_M.json 1,0 1,3': '0:40622e669da79e2e1f94ca44bae18311180835764b950561899cc7d8b51a2400',
    'rank fixtures/samerank_M.json 0,1 0,1 --sigma 1': '0:fde90853de185f7ffe8080a4b9f2f4c5306daa4ca32543490c2fca92fadceb98',
    'ibar fixtures/samerank_M.json 1,0 0,1 2,2': '0:c937a01c337df3414f6d134d5da432943def89bc0fb139ce3737b51fa55331e2',
    'barcode fixtures/samerank_M.json --axis 1': '0:6f37c277efee1037614cc680399f1d3d2235852bd2584eeb7661b905baa6b1f7',
    'barcode fixtures/samerank_M.json --axis 2': '0:8a782161722a903ffa25035281a5763621602d6c6e88e686c25f5953da0ff9ee',
    'decompose fixtures/samerank_M.json': '0:cdb8f20c5c6b653b443feaf554f9ff48a4ea5ede2c8819b9763e1e0ab8ed9f4a',
    'decompose fixtures/samerank_M.json --reconstruct': '0:53823ec3ff7643985f736624353d5d386c9e2538dc6b14f5a8208e15441ef897',
    'delocalize fixtures/samerank_M.json': '0:92eeffea83f045e47a32fc2a0b8c768c0bd4f35822777e24fcadc5abfb3fcff8',
    'support fixtures/samerank_M.json': '0:7c067c829eb9db04719a4339b8bd718c194711c12e9da3d404b3428f5d9e5781',
    'in-kernel fixtures/samerank_M.json skeleton:2:0': '0:944ae818533195190ff2435712a8268868613746215ff4fc836395d1394d624d',
    'in-kernel fixtures/samerank_M.json full:2': '0:e652bc65f81f4ea0e1aad8027499ff4edacf923d11ec3e011bf7d505b2a47b48',
    'dims fixtures/samerank_N.json': '0:a760742b4d44629deba239d85ef5fff5f6f030902927d9fb668db44ccb40dd0c',
    'dims fixtures/samerank_N.json --sigma 1': '0:3473cfc7567450ac541629bc744cb6d7b7c8a58e70ddd31d5c6a4a49ec329f63',
    'dims fixtures/samerank_N.json --box 3,2 --sigma 2': '0:ad3eb6069520e7017842de3743b09472fee3de8e21d1b449b3c9fd8dc00b3fd5',
    'rank fixtures/samerank_N.json 0,0 2,2': '0:ad1bd362e21870055d6da0f8cc50753b97498457c0127c5aa13be78a2a3bf7d0',
    'rank fixtures/samerank_N.json 1,0 1,3': '0:5b6952730adef35f1ea34671cabb9484a9c919a876b011928f374de32e67642d',
    'rank fixtures/samerank_N.json 0,1 0,1 --sigma 1': '0:190b2f89c44afd1298d3b3eb765e7f1e9c4be5b695a3d496ae07b1ce66260a7f',
    'ibar fixtures/samerank_N.json 1,0 0,1 2,2': '0:52027b6790afb54d5b5beb88ec7b987b60047c947f7837a4281bc05a97fa906d',
    'barcode fixtures/samerank_N.json --axis 1': '0:0bb42a41d45d48069ebaf321e12f5a16fbf29684314cc29cc58a8f3aaf6bad86',
    'barcode fixtures/samerank_N.json --axis 2': '0:19e5add9b0a2e1fb1052d781ffe725fbc69224a0c21bb5b49e44b8c744b8cf6e',
    'decompose fixtures/samerank_N.json': '0:125ab0c586e17ecfd7d674091e4ca8e3557ed5ff697d19d2db7e73456901db41',
    'decompose fixtures/samerank_N.json --reconstruct': '0:ea96e8639ed28fc6d428dae0a3d4140cbb1259356c5083766b9eca2542c92df9',
    'delocalize fixtures/samerank_N.json': '0:51a99208c00832006b3894ccb0cfe9e2c7c385b8c78aed758000e0bbcbae68c7',
    'support fixtures/samerank_N.json': '0:2c31f639034514bdc5cdcdd1e3f064d14bd9b54a01dd5a518ba4d92c53a5b6ba',
    'in-kernel fixtures/samerank_N.json skeleton:2:0': '0:ebf381fbec720882224d98944698e76421f98f1ab8196cf1ccdc1e44cdde2252',
    'in-kernel fixtures/samerank_N.json full:2': '0:c40a91d52940f0e973c4e7c50948ad19e8e30b563cacf93e5a41fe527b234954',
    'dims fixtures/coordinate_cross.json': '0:0287dac0f9e6b645b17776818dbbbac2c2751afb1e53a6cc204f49e8512b1731',
    'dims fixtures/coordinate_cross.json --sigma 1': '0:3e5458b8b72c437192fe8f6c695b6b81d14cd85e4976277893e7ce10d061e8f4',
    'dims fixtures/coordinate_cross.json --box 3,2 --sigma 2': '0:3309401f2c1fbea0bda2d613c2e6c5b8a7da9fbef4ab77f6f2ed56139337fb4c',
    'rank fixtures/coordinate_cross.json 0,0 2,2': '0:f0c2373d9ded6d4b2343edd7a2ba0745d691b65fc3458ffb32445af72ef9c339',
    'rank fixtures/coordinate_cross.json 1,0 1,3': '0:4d36499dd456c56e1a4900f9e746c400a7f2128e4f55e52c68631e7935bedfcf',
    'rank fixtures/coordinate_cross.json 0,1 0,1 --sigma 1': '0:f47b173c86629d3da484e3a8ce702b1cbd57f9dde5c1078121c44c7454f9ac64',
    'ibar fixtures/coordinate_cross.json 1,0 0,1 2,2': '0:3d041074f0b663c18ad7804012184849073e65db75588e5b2e3a67d98107e9cd',
    'barcode fixtures/coordinate_cross.json --axis 1': '0:ed00702ec47126e38819daefd1bd0bcc2382cf8c75da43f9a7d950c7b8c9f3d2',
    'barcode fixtures/coordinate_cross.json --axis 2': '0:9247f6a1124b16d0bcd7dd7237f64e2ddfc60dc0c0ec9c5ae4d13cf2cbf387cd',
    'decompose fixtures/coordinate_cross.json': '0:f6526b664e2648de049918ad9ea395db130002bad7744658d493427a77c99beb',
    'decompose fixtures/coordinate_cross.json --reconstruct': '0:9a23daba399e7d59a5b6f55f9ea0bdda317fb321f681c4e543cfcb39fb3c1b8a',
    'delocalize fixtures/coordinate_cross.json': '0:4da65cb4ca4d6959108fbdd91048c199dae2db1d0253597d07a0dc5a1d5c00ae',
    'support fixtures/coordinate_cross.json': '0:d905c0470555531f8e6718420694dd6d5992ce400c3ca01a8f19e472fc1bacca',
    'in-kernel fixtures/coordinate_cross.json skeleton:2:0': '0:f6c5df7de500ae563c8fe54ff73c960f658d63a86ac315d56b62f4387738268d',
    'in-kernel fixtures/coordinate_cross.json full:2': '0:5475218e73a0603dd7907de07c7dfae18a433b8c4536319628cf526c1922ec87',
    'dims samerank_m': '0:e222fe9d83489749fcf35d92b0e4dc81a709bcc1a7258a18cde5b5b7cbd6d592',
    'dims samerank_m --sigma 1': '0:95422d483cd98e34b183dcbc91b55bb6f94db0b42a614c0a088f51d7d680e8b7',
    'dims samerank_m --box 3,2 --sigma 2': '0:a6ace073581416ce54a67e8a53aaf255fd021376dd73fa9a2fa4aefe9886af10',
    'rank samerank_m 0,0 2,2': '0:9150d305561be7e68de61a89fc74d30bff35e365da4ee45e4bb17313a6b285e5',
    'rank samerank_m 1,0 1,3': '0:4e89115cc43fdf3ee513d8b32e59f5eed104a3941b701dc5856214888234a529',
    'rank samerank_m 0,1 0,1 --sigma 1': '0:87713cabc5b59b3154573c6980894f230fe49fa6d20ffcc2e4f5483ff66e76a8',
    'ibar samerank_m 1,0 0,1 2,2': '0:7240baf8e5f20e5534cd3eeb742afb010fe3a171b2c7755034ee8db135a217f3',
    'barcode samerank_m --axis 1': '0:cfbb88c9e256682ed538641d569882c72fcabc94396600a32633e55f32152641',
    'barcode samerank_m --axis 2': '0:3db5468fb6f4d54e1496859b28e71cfa8b085ae8f540a46ea6e9d351b2ba117b',
    'decompose samerank_m': '0:b1357d5057f543cc05227946e674c14301ef589a7de7e9db423c24083eb07213',
    'decompose samerank_m --reconstruct': '0:1817dc21083855e83cf0385d5a3bf3e31935f77dd20699288517cb3f07366825',
    'delocalize samerank_m': '0:6d034bf86a19941518a037218fc6eb9a7425a9994115387ccee02d3f1f01a976',
    'support samerank_m': '0:f904f84adff7974fab261c58962788800eab0fb091bbba954b5c72c0978c47a6',
    'in-kernel samerank_m skeleton:2:0': '0:82c08c37e4e79c909207ff540ea23346a7c024fc76ccd2fb121d09829f42607e',
    'in-kernel samerank_m full:2': '0:6fdf21ab693f14693d482742e0250d6fb07d6e9d6cfa71f114c8240efe909cca',
    'dims samerank_n': '0:74eb1a5a18519dde3932c8edc645951204f1360b4384648a0116376010137184',
    'dims samerank_n --sigma 1': '0:3b1851d478d0c7ef726d0efec6993d01c46c8f7ad65c7c13a7b11ed974aca676',
    'dims samerank_n --box 3,2 --sigma 2': '0:d46d5dd0d80a7bb754de496fd3b9eb9f5fa510fc85fd3f35e770d8665f63dc35',
    'rank samerank_n 0,0 2,2': '0:6af2683795cbd6f13b3898d99d60000da62b7a53408666f6a96be3a8de0ecf6c',
    'rank samerank_n 1,0 1,3': '0:b3ea1a24f9b4deb81adfadcc5587b4a1b46cc2bbda815e6d3a789cb66e5b8c99',
    'rank samerank_n 0,1 0,1 --sigma 1': '0:e477d6707a6e5cdbe3b9c79526049a248e56a0b684e499b8b1f8cf930be29bec',
    'ibar samerank_n 1,0 0,1 2,2': '0:258844303a6c5d3275e21fe902f6a77de321eff811fd10de0239f0e9732d1c49',
    'barcode samerank_n --axis 1': '0:7ca8b6957b05c6928b9e9eb566dd0ef45711544d7b4e8471ce878f18f7d0ac96',
    'barcode samerank_n --axis 2': '0:52e76b54fb3223c8be8d0926ed7448a9b8b2958c1addfd3d787f7e6c9ae0fcd7',
    'decompose samerank_n': '0:6d6d9542118135eb06318a757b465f71941c89f12abc242fcebecc8dca128f6d',
    'decompose samerank_n --reconstruct': '0:8bc284c790119bdbfeec098d104f2ed801e6f4cf3c91fa11d7ccc58ccfc49ac0',
    'delocalize samerank_n': '0:37fa1daa2dd39ddd7f3cd02b521e44ae1fac1f85852aa5292d9a4ff113c93cfb',
    'support samerank_n': '0:3aea604c3f2209ac069078dfdf779737ed61c64482c22ddec403281b0d07b790',
    'in-kernel samerank_n skeleton:2:0': '0:d404282f0a26fb62051c832a530da53b230e91a8cd56e81aaad2a4c1396ff2d4',
    'in-kernel samerank_n full:2': '0:6e86971523a7b0c27ec178e3eda722d7f429122bd7ec65739d8ec12a33b03bb3',
    'dims coordinate_cross': '0:23fb1a24329cdaa19f0203e712e80b7680e2afa55458bff54cec4d91032e7371',
    'dims coordinate_cross --sigma 1': '0:5010c0f938794acf018255361c7d594d893cfb1e46396c94e26c0333596c813b',
    'dims coordinate_cross --box 3,2 --sigma 2': '0:e54fca9e004fe6da4fdda08191d7f470461eb3f277d0825fef8a0da9168dfb13',
    'rank coordinate_cross 0,0 2,2': '0:d0b22e6b888125313f15d63704c91d4d64edc759a334c0dd6006c551856d18c4',
    'rank coordinate_cross 1,0 1,3': '0:7d883ed2f1a7372c68c451e749d0b414e79340265fcf5f62fa4b326e23599999',
    'rank coordinate_cross 0,1 0,1 --sigma 1': '0:310ea7c1c70eca54754eb210b57ba5dda32f7e50a303d1c9a03f71d62f4c1339',
    'ibar coordinate_cross 1,0 0,1 2,2': '0:f623886e8bc8b6bc73ff6d7318bee5a5d9d1105de1212ca6b5163d9012c94268',
    'barcode coordinate_cross --axis 1': '0:810221386cecbbf1db3d971dbabb29f53f93aa2667a5f1c7444c60bf9060444f',
    'barcode coordinate_cross --axis 2': '0:8f18d404859cda31e365259c54a820fae3d7784ea6760d22cb47ca81f57d1d90',
    'decompose coordinate_cross': '0:a8bb207362b7cc52c3e625d9331af33c983f39f4e91d5da1c35264d60fbe8582',
    'decompose coordinate_cross --reconstruct': '0:f1ed8b92491355f422dd8ff2d600675e46e1367abeb5a5a532563a337a6cfbc0',
    'delocalize coordinate_cross': '0:c24a49efe2ab4dfae1cff5fb5fdfc8093e412207dd731cf506775d905eb7a345',
    'support coordinate_cross': '0:a747c920c3b3ffa454159de47f8bd7bab832633be81964e17981531e56fff6d1',
    'in-kernel coordinate_cross skeleton:2:0': '0:6905825390b1e720b8d85d8f7110221d75078f9c8414171e952bd4601e26797f',
    'in-kernel coordinate_cross full:2': '0:4ec9f0a40cf27450ccbad1477e8670d37070fbdc290b022953fadebac265f347',
    'dims quadrant:1,1': '0:d980c1b4560aac25c67c51e7007e5f6f16c5d9a1ac32d0cfeb8f5b34e391db1a',
    'dims quadrant:1,1 --sigma 1': '0:ddfbe0c35cd58aea1764f805acb120512ef240984774a9a66a81ee4d646774e2',
    'dims quadrant:1,1 --box 3,2 --sigma 2': '0:f0d14490cd674658f2d0c4922b30687bd93cf4e48b8eefaeec54ca5e6a8d6424',
    'rank quadrant:1,1 0,0 2,2': '0:4b5113c7817edec5e82ddae166943c54f4e3da104f10ee4e0b7f85b38fb35040',
    'rank quadrant:1,1 1,0 1,3': '0:360c3edd748f81f32deb4afd8d96005478ba74f686b6967a6ab12c4eda634bb2',
    'rank quadrant:1,1 0,1 0,1 --sigma 1': '0:11438d7c054c8ea3bc37bded6c406e9dfdc376675bf54c6c92de73710b370b79',
    'ibar quadrant:1,1 1,0 0,1 2,2': '0:5808137ca374d326e32b61ab95069ad1516702013e1945426b8f854a5e550a36',
    'barcode quadrant:1,1 --axis 1': '0:6cfe3929b3593f48da5e1454b944893008579b6aa93afb8d4c4b6e10360b63ed',
    'barcode quadrant:1,1 --axis 2': '0:0966fd276453ce85a3d820bf6ffe9c6533d265014e39b305ee2418c61a25dc82',
    'decompose quadrant:1,1': '0:7f2f08374826ac8ccf703eade6c5e4f9c98ff3b218c3ac41ab76354be0527bc4',
    'decompose quadrant:1,1 --reconstruct': '0:2105e4096bf5e0aab08f4f5e5c959850dac10f6a9c05c37d38eea26904b5ed56',
    'delocalize quadrant:1,1': '0:c113e90c4105c41a73546438df4fc13ac01733b2a421c9e78f2a41eb41c03d1b',
    'support quadrant:1,1': '0:6a21b09f742ee4468e5096bad7308465adea740515012a2a4066b34333348bfb',
    'in-kernel quadrant:1,1 skeleton:2:0': '0:2f14694b0dc308fd12d59924792fe8c3d5ffdd66e62dde4e968e29a2b4e1265d',
    'in-kernel quadrant:1,1 full:2': '0:0758b47065a675fd7865387eb9c639c8cd0bb0508638bf6b7dbf7c98baa91c93',
    'dims vstrip:0,2': '0:a979a282044f04fd2871b074db41d0d35294f292aaaea1c5f0847959f7d9c9a9',
    'dims vstrip:0,2 --sigma 1': '0:f609154eb9ca636e3987e8a253f9435f8be029558221ac587b975e3d03bbb5b5',
    'dims vstrip:0,2 --box 3,2 --sigma 2': '0:87048af093b1e8ce982507e9e291ecfd2a06e76cebfef8561e87c8bf16775e3b',
    'rank vstrip:0,2 0,0 2,2': '0:9fbeeadae2964afad1fc82a0e4055c01f39ff522d4ca0d75ab58bdb7d8c6e389',
    'rank vstrip:0,2 1,0 1,3': '0:3150970af33b0337418a48c448969996fb87e69b2589bc9269984ef1344972b1',
    'rank vstrip:0,2 0,1 0,1 --sigma 1': '0:fd79ac1bc92904a81f0172c0d081001e8cc005f83a1f0e873f96b6c9ee007ab5',
    'ibar vstrip:0,2 1,0 0,1 2,2': '0:1a6c20c9d999485b1762790dbb580bb8c5d8a46eeb8734c569f870bf48e03e57',
    'barcode vstrip:0,2 --axis 1': '0:2ec93cac49e837a970ddd0450d6185349e3ed0949d90598bfd07f72ba4202b30',
    'barcode vstrip:0,2 --axis 2': '0:94b01c11b34e8c4a0859a87179ed7ad6fa573cf450ae8594ec6e741e921d7541',
    'decompose vstrip:0,2': '0:620fe1f260efd46b84f24c1580f6ac3628182cf11edd9aa65636121f3c035911',
    'decompose vstrip:0,2 --reconstruct': '0:e6bfe9065ac3766d480c04b911cbf146afee6d406253cebe5754cbbc9047e8bb',
    'delocalize vstrip:0,2': '0:8b44b582d645c66797efb5cb1f1adfd2b79dff98e1fbced89cf660e737a514a0',
    'support vstrip:0,2': '0:19c89b5ef669a1a7876a2a91e7ec8269f57c1552659d6db256770f332d8000fe',
    'in-kernel vstrip:0,2 skeleton:2:0': '0:de349367c407523110276cd24d978cb204bf582da2aa36835af88a7d1c3c985f',
    'in-kernel vstrip:0,2 full:2': '0:47818a04c519a9a32569d334910809c35cbf0a299555431ad38f3c892072dfaf',
    'dims hstrip:1,3': '0:f0f5eb311ecb19d7aaaa8163c92c910bd0ce500873710c7097ab1e0802e140a3',
    'dims hstrip:1,3 --sigma 1': '0:77a5a8e1427e4966d18cfb89c02be652de2dd6b6300b22948d817eda45a75030',
    'dims hstrip:1,3 --box 3,2 --sigma 2': '0:8541a3e72e890479db83b5800e7ab29fa92875fd0102d8d7807e6381ca6c39e1',
    'rank hstrip:1,3 0,0 2,2': '0:bb8cd7f01f8393d04d8bed5cda1a3fe03f3405d3c46ee218f579856b00c9ba69',
    'rank hstrip:1,3 1,0 1,3': '0:1356583e566c336b65dc185165feb7a007f09edfa0bf752f8fe4fdf85458f19e',
    'rank hstrip:1,3 0,1 0,1 --sigma 1': '0:2109e8e5a30a2928b564d0bf745457f0bf7ecec3e5074ca793359d070147ee43',
    'ibar hstrip:1,3 1,0 0,1 2,2': '0:d6a8ad4f1af3b22932cacdc856905bf325d10eda917c1c69a3cdd424f3f35709',
    'barcode hstrip:1,3 --axis 1': '0:3061b5c1bafb301bb6957a0a601845e1d3e6c56b0eb0881bd8d908cdf72204f3',
    'barcode hstrip:1,3 --axis 2': '0:abe273999c77b9c82a9e640e008d1c5a179d2ce460fc0a7a6f0f3ab5d27d030b',
    'decompose hstrip:1,3': '0:36eec78921441c330d7799908f98d3d3edc5c854dc1d0c106d28186cc6fba04a',
    'decompose hstrip:1,3 --reconstruct': '0:90ab31a002d7dcb46bdbe062dc572c82a43afd2e1055d3b71d8fbba23680926b',
    'delocalize hstrip:1,3': '0:8db4bf65d58271ba6e58ec9d4eee1e4fd9ab0009bf5efafaf25f1c724e6d371e',
    'support hstrip:1,3': '0:22d7eaa4050b38977ba5f0b4be6b7086ac0e41b39ad3e7db7c9bcc0779e5bfcd',
    'in-kernel hstrip:1,3 skeleton:2:0': '0:758fb907bfb2e7b32635cb853542515fb73fc9b4d075d30108f11a12afb4d2db',
    'in-kernel hstrip:1,3 full:2': '0:658ac6f87e382499f4900cba6f07668b4cdc0cb25287313a5a6ad3831f9bbb64',
    'dims rand2.json': '0:9c78b2c4bc69ffe3e3e67932deeb243ffc6f02b3e2d9ebaeb4e564413f8db5ea',
    'dims rand2.json --sigma 1': '0:e9ed8156c023dea2f4ada197a01db34fecc57ce676eab7299c045ecf4356b741',
    'dims rand2.json --box 3,2 --sigma 2': '0:b9cea25301fd163d96946658442109ef60b9d7eef2d40d4410c2f1a7f9a73831',
    'rank rand2.json 0,0 2,2': '0:49b89e4dacb4bd05eb881b7c295c2bca12ae8bf5e7b795c032744ad1f5e7f8f4',
    'rank rand2.json 1,0 1,3': '0:cac4a3c6c45bbf55e7a2bc566effafe7295f41a73e22fffd690ff6eaf5dd2317',
    'rank rand2.json 0,1 0,1 --sigma 1': '0:f1b0a6cb2b110dd5372981bd28facb8385c45bcd3b1bd6dda69346a2634f5fe0',
    'ibar rand2.json 1,0 0,1 2,2': '0:aadfb1507a388460bd8043e499877a818a96ddf1b995f780f2724ae25300a064',
    'barcode rand2.json --axis 1': '0:031c2c118fe1607289017f3e246e50ad1ad498f81e8e65edb60377b542176659',
    'barcode rand2.json --axis 2': '0:9df102ad51c924a207c5d67aa5e258d8f6783c320a447bdd3e45a84d22a9e233',
    'decompose rand2.json': '0:00c92a560fd9116330da40720189a788479f7a37d232de5947e6e4a31b00ea39',
    'decompose rand2.json --reconstruct': '0:7780334d0862beda7fabaa3799835039782b137bd9a357d9875043234d6ad443',
    'delocalize rand2.json': '0:965941b17889d9c9340962ad887a03363cd80b9c2a308e2ca78b04e7079b035e',
    'support rand2.json': '0:0d003720fcd55bc417963931ffbdb9f6b4c89628396a6b42f96df4e6daf88be1',
    'in-kernel rand2.json skeleton:2:0': '0:777aafb7d442f16bba30a829e76f2261b89c856db2a7833b65f6d9656dda7564',
    'in-kernel rand2.json full:2': '0:b3483c6d7fa1b71bd27329837b2bf92874ccf02999f46d3fc67eac81af576a78',
    'dims rand2q.json': '0:57a9a5c92e1d6424a4de487b5ee363cbeb437d953857a77aeaf2799224190cf2',
    'dims rand2q.json --sigma 1': '0:d5b0077ca2a775800b57f34c1ab72a4ab69c3195f67c93487f16972fea47c932',
    'dims rand2q.json --box 3,2 --sigma 2': '0:e2baaaa8ff120e88b3503644ff0d56aebb2ad79e6f10094e64e092e5bf481bcd',
    'rank rand2q.json 0,0 2,2': '0:a4571b462d8a197a45c50cef0494fca5a6e901cf3e5ba6b32e0b5531df385c36',
    'rank rand2q.json 1,0 1,3': '0:9c4cd71c9b94988ee06273a1a45d853242b576b869ba22d6c93979f50fe9717e',
    'rank rand2q.json 0,1 0,1 --sigma 1': '0:db6544f197762ba20a85cd38d8aaff2f3ea765217323859d279b93cbaab76ece',
    'ibar rand2q.json 1,0 0,1 2,2': '0:156f7c03a08132691793c8ccf38a61c1f494a5303740ea2ca06fb558aab28e78',
    'barcode rand2q.json --axis 1': '0:789dfc15991886178c17897869bd97c786803c69268287c203f2e3cb2993e51f',
    'barcode rand2q.json --axis 2': '0:93c63fc045e3180ec9f4aec69ffa4957ef35ca464d72eb9468284c600354a191',
    'decompose rand2q.json': '0:a2490941a50fa100fe670fd14a1943ab4d1fc04445a95b68f7ef069f8793ee22',
    'decompose rand2q.json --reconstruct': '0:f10a92829f851a5e4fe85649f876abfda03573f2629728c37650be9065d45767',
    'delocalize rand2q.json': '0:9184034a9df191211c30006a69e9094c565d3e17a09134715bc42302c4b88c76',
    'support rand2q.json': '0:595d47e2fc1b944d2c169ad7150ca5c8e4656831d0ae1d5374dfc26812cfb22d',
    'in-kernel rand2q.json skeleton:2:0': '0:879d304fa6ea59eff70254989de2f26d012ad62554224d0a922adb06b41cb3be',
    'in-kernel rand2q.json full:2': '0:a478cac07c572bf8cee9d34d7cd48492a57322aea0a36e0587cc8c929210944b',
    'decompose samerank_m --svg out.svg': '0:0cef42ef0854f973c4baeb8a831d5589935f2eb1032267fc34d71097a2d2a0a4:f1dbb3d3e246c4e22c84a9c854edf78007129ee4bc55a3e8f65d7e991b8d96c2',
    'decompose samerank_m --same-as samerank_n': '0:122c507c32dabc485e90557934c252b29efe65b2e8879016ae738a5ec665b804',
    'decompose fixtures/samerank_M.json --same-as fixtures/samerank_N.json': '0:d690355c9e585c99d268762c74fd052ae4c850d15f184db7b39fc06fce03d09e',
    'dims fixtures/m3_indecomposable.json': '0:e5bd3f9bf1a67ad5e997320fd935ce28138a6c423c29b63094763d0d63fe1c05',
    'rank fixtures/m3_indecomposable.json 0,0,0 2,2,2': '0:0fa68871defc1df18a76c97c58d957fa89922dfed29e1a2cf0d5880717cbcd9a',
    'support fixtures/m3_indecomposable.json': '0:189d3b39a7a8f14c5fc15363937df120439a6b73a1c72c133dd7c0aca7e41633',
    'in-kernel fixtures/m3_indecomposable.json skeleton:3:0': '0:708f429390ada6502695b15c3bf3172f3fec778cff05307b89ed3db476d7e107',
    'quiverize fixtures/m3_indecomposable.json -n 2': '0:bd7adcb4773815a950b3763f0dd3e830234a7251c51499736608abf6ab259115',
    'endo fixtures/m3_indecomposable.json -n 2': '0:a0b54c0614cc954702087bee6f206692aa96e2e72e7228c98e506f26edc30eb7',
    'indec fixtures/m3_indecomposable.json -n 2': '0:ed9c2bb8a623aef3ba6797e0a59542dbdd816dcf179cecf6f2da5745aae13baa',
    'split-legs fixtures/m3_indecomposable.json -n 2': '0:e973edadd1a6c39a66fff9911a7904ba64f81b76549e84e368a9d46f110b1f7c',
    'dims m3_indecomposable': '0:0a4eaa7eec1802d610e7387b5f4edd740d164be8caa6170b2778e0db81655825',
    'rank m3_indecomposable 0,0,0 2,2,2': '0:d4249cdedc7533b5fe3d8b5a2ffc91e7b5f34bb76362ac782a53e5157f2ce3ac',
    'support m3_indecomposable': '0:6deba67d3a78f494ed9996e898ebfb6f6e981d8b21cd318469366c898917b1f7',
    'in-kernel m3_indecomposable skeleton:3:0': '0:9d4f0f52e49e31ce0960d0a879badfbd35dc7028426f16b661d0be57c0b609c6',
    'quiverize m3_indecomposable -n 2': '0:260dd0856302ece1b5ac0d34b24cea692a3d6bf2477ca292e1de9403cdb17698',
    'endo m3_indecomposable -n 2': '0:72c45f10bb1b42ca814d30a4cdd15d0dc32475f05474f29ef8c34abce2ae95eb',
    'indec m3_indecomposable -n 2': '0:c10682389fadb3866f64788014b956b9d652577e2566f21bbec728d50fb9ebb5',
    'split-legs m3_indecomposable -n 2': '0:8c9d8f8ea1b58e2c50bff21f37850362263a16337703f76e7df3b9cf5251997f',
    'dims rand3.json': '0:c4e93ac39cf978406a5266f296732f3882b2484f4b06fb0cfc19620e24642a91',
    'rank rand3.json 0,0,0 2,2,2': '0:334a6f44ebd150f00aec96e583a023c2c488830fce2ae4590f4cc9f103ca3ad6',
    'support rand3.json': '0:d092b112c4323a879e5095bba407194f9602cd176e4a4cd8950b08a26371020c',
    'in-kernel rand3.json skeleton:3:0': '0:4ce8af61f39d171f15b2f67c169e155bcbf1f4c1731087be812038ba667ebf0a',
    'quiverize rand3.json -n 2': '0:07f0182b1c6413cf8e0d87f498b91ba98d8105ec8c0214cb6e90b113b2ac9fd6',
    'endo rand3.json -n 2': '0:7370d4f9c1597d04da168c62d3913bc6fb7c23e649825a87439739109ac85dbd',
    'indec rand3.json -n 2': '0:0003978494ac8f94509907972254acf1febe1a33399a4f023fdbf47fdcfd54eb',
    'split-legs rand3.json -n 2': '0:ac5aae03d4ae54e499db1b0ad3d26e651b1328f9d662e0a3735d1922fd1b65c0',
    'quiverize rand3.json -n 1': '1:f1fbe05a969cc06525d612f4c097f746cd3d0703451d3dd81321782d173b5536',
    'split-legs rand3.json -n 1': '1:2747fc391ab96254b2027a0204e298733dfb4ef9d2be7292100197ef963f8eb4',
    'section-exists fixtures/notsplit_map.json': '0:c25b84aa54f301486ed05800192da083a00a8508024f22de77a70c6259c01e67',
    'section-exists fixtures/split_projection_map.json': '0:0d22ddf0c37bbc0f85b93e9b9d513eb9d12b3854d651cb78fe111f1ae5ff7857',
    'section-exists notsplit_map': '0:7be1467ba77ec44a580f08cc0300d3fdb8a3fdfedd42cb5ef927dd982ca60882',
    'section-exists split_projection': '0:6aeeda6bfa7fe3bb341385752186ecf77afe24f940dc2ca88b683f94c72a965b',
    'face-ring skeleton:3:0': '0:dcc978484c00ec5461704ef5dd3884bc06b1a44436b4ea5ebd80db143982942f',
    'face-ring skeleton:3:0 --all-missing': '0:6a23ad86e85185f71612a2e9ed139adf7208a0ed1be0fee4f17bd96baad1a0f9',
    'simples skeleton:3:0': '0:0a14d4cf508f37223dd9b59cd561ce8e0d0a3cc825821a50508600a937e659d4',
    'kdim skeleton:3:0': '0:65668970db9a93051fe7ebd1cda46e07c1522150d2b22f50dc143940f56872b6',
    'serre-step skeleton:3:0': '0:6097260d0064702f924c5f05a528a22aa385a7e393e8873c97e57b76d4640f59',
    'serre-step skeleton:3:0 --iterate': '0:7f235583f37bc89c65f0e4d783343de0d4d8c4cf292c17134376c9c694324e7f',
    'face-ring skeleton:3:1': '0:50c8f62a82a370b1f3ac0d824c77f3ae0f22789b4a3590f5dce8361ad246556e',
    'face-ring skeleton:3:1 --all-missing': '0:61d15bbf31a737ab0bf436d9dbc58468c5bef8b215eee1225915bfad8aa305d3',
    'simples skeleton:3:1': '0:99c73a946adeb4f80f0d3ef6e6dad202f16c3a0f24194eeda09a34be003763b3',
    'kdim skeleton:3:1': '0:48beab73676148ad1e1d61652c7bf906f9e2f1efedc11393840e754a651e175d',
    'serre-step skeleton:3:1': '0:8150a9b336282f5884fde64b54747f09d9cc0aa48892a0d16670abf1d0d5dc64',
    'serre-step skeleton:3:1 --iterate': '0:fec154861d2a25869bb069c5be5cca41413d4e19f0a0015bf7287cc40da136b1',
    'face-ring full:2': '0:916d2ef238346240636bebd25c92ebe1c9689fe217a1ef719cff91e871e0d499',
    'face-ring full:2 --all-missing': '0:ad205961c99c261a6fc71d3d67a2076552bc176d615af744eeb2a519d0332ff4',
    'simples full:2': '0:f3c04bf63a2ed9f191c02a05c47fe8bd564e538c980787ce251f885327664b98',
    'kdim full:2': '0:f4fd1d3aa185a4da62e5f5761d78f616ed4feecfd31f3115fc06042c19b5b198',
    'serre-step full:2': '0:5320c49f2df3d06e4d2072674dd7c251ec255db8917280d10f9d46b9a13ef0c6',
    'serre-step full:2 --iterate': '0:85baa08c5e4837cee40a30b93465858898eb3b7082db8d0642ef617f4aed81ab',
    'face-ring empty:3': '0:0b0f535e82dbc77b5c9fd677eb1131aed16adabd0a926fb2091f518f1f7ba601',
    'face-ring empty:3 --all-missing': '0:f1adb436170f9b9fb206a6786874e683346d958e2d1606d36c923ac9a3130821',
    'simples empty:3': '0:8dd9f98068a8ab8b2beda1a755079195503b48dbdc8692d30c018daf8eced77c',
    'kdim empty:3': '0:417900bfa41991eb23abd36b298c177b61e58c8ea0421ca4a0b0da31380121a6',
    'serre-step empty:3': '0:80f3dcf33611edf9c93b09ae745164668bcf7fafea64fd2dfd97cf321b7572b4',
    'serre-step empty:3 --iterate': '0:683ecd18523bbf5474d72327e499f4c9d366e9f14b4ea23d7eea8cdf7170e7f2',
    'face-ring skeleton:4:-1': '0:30c817714f67c1f3d733916c75574eedd1ec5024a35f83466056b612d8f7801a',
    'face-ring skeleton:4:-1 --all-missing': '0:59e04760b7c920b5a436d3e41ced0b32573cd3fdd9cff520772b2e8a557c662d',
    'simples skeleton:4:-1': '0:108ae188180dac4b5365b6e3910ec09b574c4884f08afc6998d2d4bc19dda190',
    'kdim skeleton:4:-1': '0:eece41e360d5d35f45b30c6444a3b1114b4af734e2dca752cb6cfc0d674954b9',
    'serre-step skeleton:4:-1': '0:5989596f7a037a860e850f0b838fc303d957559cc610a7d5eae922a5e7b316b9',
    'serre-step skeleton:4:-1 --iterate': '0:3b8e569045f47ce9e9bb76a2e6ec987c56de5c43509e8c7eac03b02a798c8f7a',
    'random --seed 7 --params m=2,max_gens=4': '0:eedbbf68648fd238e9c60b81b552296c9a9ee4c41482cd87cec8e849b0488794',
    'random --seeds 1,2,3 --params m=3,max_gens=3,max_degree=3 --shift 1,0,2': '0:58058e26bca161f2dbd017656acfb8703b506e388f9ea0886c831adbedfbe746',
    'random --seed 11 --char 0': '0:e174f62c4c426616ec5afa71dc4c5aa3f7a046153509f140ca04c26911de92da',
    'verify-paper --list': '0:d2e0d6d4a52dcb665d19ae7e483dfa37016e534659ab980ca91f6dadb9d54dc8',
    'verify-paper': '0:0e2b9276c613c5665e7d0f34a7dd61b0ed2f2e3b2eac2fb76ef72dc49792e8f5',
    'decompose samerank_m --char 0': '0:bfc140f2f4f874f0da14c6c354e623f10ded126bf3aed86164c7c19cd0e4fd72',
    'decompose samerank_n --char 0': '0:7d494b899c469aebef7a3f1b33e30eb968def52b0a514b7b4d9fce41148e4dd3',
    'decompose coordinate_cross --char 0': '0:ebf4728b902ba6131fd2c833327d3edf63e0a4fc37cb7711a148d35553f153ed',
    'decompose vstrip:0,2 --char 0': '0:8758ea2d04b048c18cd8c1cdfdeef0bfd759d04a165b4ce89dbec28f9fad8440',
    'endo m3_indecomposable -n 2 --char 0': '0:f7763c01003e09617461e872997cc8af04ff577e7838ef13af0d6df5f9a28e80',
    'endo m3_indecomposable -n 1 --char 0': '0:920e88e0ea0bb9be8e243242413b736005b5070448c4d747f5ac39759f2cb906',
    'indec m3_indecomposable -n 2 --char 0': '0:f508f7ecd58ce4b9c204fb8418b4b2e928b12ea39caec6c9fd994ceb7f52f312',
    'indec m3_indecomposable -n 1 --char 0': '0:41453d292a146ec317b5503679cc6c5a345e714f4f18923663aff850e7231783',
    'section-exists notsplit_map --char 0': '0:0df32de9d1e7b31620775d0fbb60e8fc3477ab6adfafa9681cf7d908db6c536a',
    'section-exists split_projection --char 0': '0:f2375df7a4d8cf67806bdc52dc3797069e98e75b4b37fc80bf0a207228172ed6',
    'decompose samerank_m --char 2': '0:0e30158f4e4ef11b179bbb5dba95b10295d151a4066506880ea3f42c52f3d4b4',
    'decompose samerank_n --char 2': '0:e174dd310313c3b4efbb28c6a94f2e625064a5887592fab4844f38cd1ba813b9',
    'decompose coordinate_cross --char 2': '0:5c384031c0d6cd649a300092cedc7cc45617ac27ba42a44fb175b48e981feb15',
    'decompose vstrip:0,2 --char 2': '0:286b360b19215afae9964b3a65370eb5a77b1dcad7ca33a54e12bf0120152691',
    'endo m3_indecomposable -n 2 --char 2': '0:20175834a7b51312a1819b5818e7b103fe22962d53d06d723c6293f0d01b0da3',
    'endo m3_indecomposable -n 1 --char 2': '0:9e3990aa280b8c91044680b8cf8f18ad0035162213cea240a47b0e43da260403',
    'indec m3_indecomposable -n 2 --char 2': '0:d9e87d9e86a9db5f0a741ddd4c3309f3ca4c348ce7cb5b46e146aaa24f8fef58',
    'indec m3_indecomposable -n 1 --char 2': '0:cbe15d947414791b4b066e9783d1242ce88ee4ed1c884fd8babb87d731afce4e',
    'section-exists notsplit_map --char 2': '0:19a558ee6d821f4e71c428d34689fc03bb455fbe92c50a9ecbb860c56dfc2388',
    'section-exists split_projection --char 2': '0:dfcfd0aee1e2fb84dbb7c6ac2e7468fdc028f47fa719399b156d0439f035f508',
    'rank samerank_m 1,1 0,0': '2:4dade6969d8fb91fb88290ef69c2c8f91b333674bf66d31b2c46297df6e1e4ad',
    'dims no_such_example': '1:f0f218c71a0c409c9d8c0372f7b2d4c7b14878144b92cc4e079d61728597a6da',
    'quiverize samerank_m -n 1': '1:efaef0d429f8c02b765253297e06f7deeee7e3549b034265dd58bb5d1a26dcf9',
    'in-kernel samerank_m full:3': '1:658539de88fa37c2aa5089b42f8694ea1e4ea96f1925972b0344b333d1171afe',
    'random --seed 1 --params bogus=3': '2:06c9c9a21da5a7da5ea4c35ce3ff32a059b1f61757af73d2b9e4e9dc947bac74',
    'endo samerank_m': '2:d76020bd53b74b1423730e380fc218d6084340741b1d5f37a2b5bba698296ad3',
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _prepare(Path(tmp))
        print("GOLDEN: dict[str, str] = {")
        for line in INVOCATIONS:
            print(f"    {line!r}: {_record(line)!r},")
        print("}")
    sys.exit(0)
