"""Golden digests of the command line's JSON output.

Each case is a README example (plus a few traced and multi-boundary
calls) run with --json.  The sha256 of stdout and the exit code are
pinned, so any change to a serialized sum, a term order, a coefficient
format or a suite report shows up here as a digest mismatch.  A
deliberate output change must update the digest in the same commit.
"""

import hashlib

import pytest

from goldman_forge import cli

GOLDEN = [
    (["bracket", "--g", "1", "--b", "1", "a1", "b1"], 0,
     "33a638630dd8bfab490db02db6ccc16308b5997a67cea12a3e4b00a395af6c6d"),
    (["bracket", "a1", "a1"], 0,
     "2a7b7e4346c8e133149ab571cdface8c895ffe5866aa807cd4504143696cf8cf"),
    (["kk", "a1", "0:0:b1"], 0,
     "298a8f7aa815835c039cc88aac5a3d0924ef5cbbc55f2a821ec6df7c595058cd"),
    (["bipair", "--g", "0", "--b", "4", "0:2:1", "1:3:1"], 0,
     "41f5f7992e37558fdb77cc10e79542623b8a40226b75758cdf7149fb9d009ef7"),
    (["expand", "--N", "3", "a1 b1"], 0,
     "91a445be2ebebf4d68aef78e68656784c274d44f074fb5ce306cf6817d2a40da"),
    (["adams", "--n", "2", "a1"], 0,
     "379df445c9cf496efdcc42eb8c69f4b7c280dd1393becb1e887dbbacbf2ab21f"),
    (["solve-expansion", "--g", "1", "--b", "1", "--N", "6"], 0,
     "0d7474fd03d590693d7e2530e05f49f3f416fb729875f1e6278bf3e89810af58"),
    (["kvi-check", "--g", "1", "--b", "1", "--N", "6"], 0,
     "f805b30d25bbd58ce56ce49d3044b5e12398e3267e89f89c8ef7912669757bcb"),
    (["bar-pair", "[xi1|eta1]", "a1 b1"], 0,
     "b3dcb184a5eb201bda9495abffaedb09b011118650d160b5490d5c53e60a07e7"),
    (["resolution", "--g", "2", "--max-n", "5"], 0,
     "f91db9cfeb8aaeeb1a46975a41d605f7dec764172bdb20f013bc44d5cfc0d0b0"),
    (["twist-check", "--surface", "1,1", "--N", "5"], 0,
     "8fbbedd6d33004ba41960af03615470cb10d51bf3ac190dd964c45e2a8d11d48"),
    (["verify", "jacobi", "--g", "1", "--b", "2", "--seed", "7"], 0,
     "f7bd0b9ed4ca59b4dcf53f4a28632a42d389ad9739e5530dc9636c28aebc61a7"),
    (["bracket", "--trace", "--g", "2", "--b", "1", "a1 b2 a2'", "b1 a2"], 0,
     "003fe3a50346eb2eaed1405b69664848c1875018349e977304c80570664d0e7f"),
    (["kk", "--trace", "--g", "1", "--b", "2", "a1 c1", "0:1:b1"], 0,
     "cd9f17859f3c69973f03a4fb3d132aa1889463eb6f61432c7722c5d88c6c3d52"),
    (["bracket", "--g", "2", "--b", "2", "a1 b1 c1", "a2 b1' c1'"], 0,
     "9382948f9175dd6112b257fe900815543adbb52970a0426dbe09fce9f8e6e9bf"),
    (["bipair", "--g", "1", "--b", "3", "0:1:a1 c2", "2:2:b1"], 0,
     "c003f66219922026b8936d19ccfaf6544c9c390cda04ebb2e0a0fb0ce18d9277"),
    (["verify", "kvi", "--N", "4"], 0,
     "2f24eb8ea5a7d90358a5d61e400482726365c96daee8096b5050940bae922f72"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_json_output_matches_golden_digest(argv, code, digest, capsys):
    got = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
