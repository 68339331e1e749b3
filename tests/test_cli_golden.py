"""Golden digests of the command line's JSON and text output.

Each case is a README example (plus a few traced and multi-boundary
calls), run once with --json and once without.  The exit code and the
sha256 of stdout in each form are pinned, so any change to a serialized
sum, a term order, a coefficient format, a suite report or a text line
shows up here as a digest mismatch.  A deliberate output change must
update the digest in the same commit.
"""

import hashlib

import pytest

from goldman_forge import cli

GOLDEN = [
    (["bracket", "--g", "1", "--b", "1", "a1", "b1"], 0,
     "33a638630dd8bfab490db02db6ccc16308b5997a67cea12a3e4b00a395af6c6d",
     "38adb46e9d651ce21dd13082034da26d517907073c41aa9cbe50b83eed97f5b6"),
    (["bracket", "a1", "a1"], 0,
     "2a7b7e4346c8e133149ab571cdface8c895ffe5866aa807cd4504143696cf8cf",
     "b0addbe19230712a1ae68eb1db869d2ed95db0329dfe630e30c15ec036490dc4"),
    (["kk", "a1", "0:0:b1"], 0,
     "298a8f7aa815835c039cc88aac5a3d0924ef5cbbc55f2a821ec6df7c595058cd",
     "6ab11e91925f3525ccbc04562b7efe8ad7b745689123d288adddb4e13d086f08"),
    (["bipair", "--g", "0", "--b", "4", "0:2:1", "1:3:1"], 0,
     "41f5f7992e37558fdb77cc10e79542623b8a40226b75758cdf7149fb9d009ef7",
     "cc795497a375b50b53e6bf93a1b1bee5bce6006082a02bddc09c6ce0880845cf"),
    (["expand", "--N", "3", "a1 b1"], 0,
     "91a445be2ebebf4d68aef78e68656784c274d44f074fb5ce306cf6817d2a40da",
     "4ef6b6e9ebe20c1d7b4c2347033472fda9aa3d4fa7ae6ec7f10a7c3d832df63d"),
    (["adams", "--n", "2", "a1"], 0,
     "379df445c9cf496efdcc42eb8c69f4b7c280dd1393becb1e887dbbacbf2ab21f",
     "2757a73f40e0674b1b09718403aaf3ccde60ddfe78e744b3d6f9114fb77a9a68"),
    (["solve-expansion", "--g", "1", "--b", "1", "--N", "6"], 0,
     "0d7474fd03d590693d7e2530e05f49f3f416fb729875f1e6278bf3e89810af58",
     "cc9fc31534d69de2f45c4e2866c919b66130086afb66c0e9d3d7ba7c2102429b"),
    (["kvi-check", "--g", "1", "--b", "1", "--N", "6"], 0,
     "f805b30d25bbd58ce56ce49d3044b5e12398e3267e89f89c8ef7912669757bcb",
     "f805b30d25bbd58ce56ce49d3044b5e12398e3267e89f89c8ef7912669757bcb"),
    (["bar-pair", "[xi1|eta1]", "a1 b1"], 0,
     "b3dcb184a5eb201bda9495abffaedb09b011118650d160b5490d5c53e60a07e7",
     "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    (["resolution", "--g", "2", "--max-n", "5"], 0,
     "f91db9cfeb8aaeeb1a46975a41d605f7dec764172bdb20f013bc44d5cfc0d0b0",
     "5c916781c39003a792c6f28ce6ffcbe4b1491f88516a4ecb08b706b627968f0b"),
    (["twist-check", "--surface", "1,1", "--N", "5"], 0,
     "8fbbedd6d33004ba41960af03615470cb10d51bf3ac190dd964c45e2a8d11d48",
     "e456d850cfbc0fad5d5ff2945e55029ca3d364bac61a67f037b218fd81703189"),
    (["verify", "jacobi", "--g", "1", "--b", "2", "--seed", "7"], 0,
     "f7bd0b9ed4ca59b4dcf53f4a28632a42d389ad9739e5530dc9636c28aebc61a7",
     "3cbbf90cb42b225c6bbde720eb3cc25ef383bc152f04dfe3a6e203da3a9e63b3"),
    (["bracket", "--trace", "--g", "2", "--b", "1", "a1 b2 a2'", "b1 a2"], 0,
     "81bdf9c0d463cd3b1a3a0539b70fc969216765777aadfefacd3cde4fba222b62",
     "bf2f96e531286eca5e17c03afab3721065cbe810e92b3d37e2527fab27d2c486"),
    (["kk", "--trace", "--g", "1", "--b", "2", "a1 c1", "0:1:b1"], 0,
     "9ee07b5dec20674f607284d8c87ad7a038538be3e12c062793ab00e56d614f15",
     "e1fef0c77442b06b9d2716fed25630a3a3801cdae70d1308b46b035e24a8cb5b"),
    (["bracket", "--g", "2", "--b", "2", "a1 b1 c1", "a2 b1' c1'"], 0,
     "9382948f9175dd6112b257fe900815543adbb52970a0426dbe09fce9f8e6e9bf",
     "2c547b75071914c316066969b227fdce0e903df8869f48f543d34046da845447"),
    (["bipair", "--g", "1", "--b", "3", "0:1:a1 c2", "2:2:b1"], 0,
     "c003f66219922026b8936d19ccfaf6544c9c390cda04ebb2e0a0fb0ce18d9277",
     "f1621569dc4b62981066121c856151b88de9c236a0c12110e9eaf0504a28d0a4"),
    (["verify", "kvi", "--N", "4"], 0,
     "2f24eb8ea5a7d90358a5d61e400482726365c96daee8096b5050940bae922f72",
     "f8c20bc2c5cb7b914fac974cfd0c264bb32db4ebcf27e87b89c1ee617e066b13"),
    (["verify", "bar", "--seed", "7"], 0,
     "bc9c09e705d8954b6104cc8f722a40889d96a4ab00fc4f1ba830b51bcdfb7277",
     "a40598403cd53d63fe0c8cc6c0737e2f10ac991f0a25d9930805b6b420b184e7"),
    (["bar-pair", "--g", "1", "--b", "2", "[xi1|xi1|zeta1]", "a1 a1 c1 b1'"],
     0,
     "2021ad89ce8b86217c3d2006c42490a967890743334db28f2ba62eb9f21783eb",
     "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3"),
]


IDS = [" ".join(argv) for argv, *_ in GOLDEN]


@pytest.mark.parametrize("argv,code,digest,_", GOLDEN, ids=IDS)
def test_json_output_matches_golden_digest(argv, code, digest, _, capsys):
    got = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code,_,digest", GOLDEN, ids=IDS)
def test_text_output_matches_golden_digest(argv, code, _, digest, capsys):
    got = cli.main(argv)
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
