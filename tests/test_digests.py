"""Byte-for-byte pins of the JSON dumps that carry representative choices.

Betti tables and t-sequences do not see which echelon cycles the synor
build picks, nor which differentials the resolution reports.  These
sha256 digests of `synor --format json` and `resolve --format json` do:
a change of elimination order, pivot rule or witness tracking that moves
a representative changes a digest.  The corpus forms have multiplicity 1
at every element, so the three-cycle ideal (xy, xz, yz), whose top
carries two classes, pins how a basis of several cycles is chosen.
"""

import hashlib

import pytest

from synorres.cli import main

CYCLE = "vars: x y z\nx*y\nx*z\ny*z\n"
DIGESTS = {
    ("synor", "@example62", "q"):
        "ab08bb29c1bde7c7952b00f4ab8d4b97fb1c86a219feb8f853653046b799f81d",
    ("synor", "@example62", "2"):
        "d06c8e3c5ed1831e27c342834ad2a0d3a1994f585fddfd0414147f3e579433c2",
    ("synor", "@kpq:4,3", "q"):
        "b16d12f5903fe4852f802967e7814a00dea81c3ad2368820c61dd98b6dfa40d0",
    ("synor", "@kpq:4,3", "2"):
        "a6bc26d057cdb14c0bdecccc06ff73b996b36f2fb6ffbb87148fd13eb6db6e75",
    ("synor", "@powers:4,2", "q"):
        "c7082e5dd26146ed83746bc2e9e8b8465be95b40ad023f7542e022f35711ada6",
    ("synor", "@powers:4,2", "2"):
        "6e6fdbb4d4c975065940f7447b13dc7dfd65853e8c7c5fdcc0842240e6e8e19d",
    ("synor", "@random:3,4,6,3", "q"):
        "23e4e93a7b02a4598385a544b17f1bc686d3feda7c077b9e3e0c091ce511e6a9",
    ("synor", "@random:3,4,6,3", "2"):
        "59b60be705f967e0c860a82848159aae5bfe839a8dd527f1dbceadce5c668c4d",
    ("resolve", "@example62", "q"):
        "d6ed50d0b4b98b01a0557d21ff368973d49b95b3c766b2ca2ad4a903c26aec12",
    ("resolve", "@example62", "2"):
        "b6b410478047070d7779ca51f025bb888009bd2a32897275d0f564dd43b2ef00",
    ("resolve", "@kpq:4,3", "q"):
        "1472ae710281f3c32bee5e788fcb826f94d95a9187125917127c985f417b5aaa",
    ("resolve", "@kpq:4,3", "2"):
        "26dd41195f1943df5b9cce35b58ed8820a74de3c6f43b5d135748e1411591652",
    ("resolve", "@powers:4,2", "q"):
        "befe741887f7810dc88e5bf2fb1982dc078afc5193bd37ce1b0bc151a4a36946",
    ("resolve", "@powers:4,2", "2"):
        "bbe3a5f48fecc59c5ea29e834cebf20c2d04dd6b2fbbe9e26e022840fbfa7393",
    ("resolve", "@random:3,4,6,3", "q"):
        "342c3a614cf34942e02946bd8410834ea10cfbd7360e50f7ad6054f0ed599bbf",
    ("resolve", "@random:3,4,6,3", "2"):
        "2f4a206246aa3dc0c0a2db13f28736766165f87db0365508a0da263efc12ec16",
    ("synor", "cycle", "q"):
        "30b68478a212fd27313b4124c0b0bd614f8e5cf0e322c014f1fbf56e9de3c38c",
    ("synor", "cycle", "2"):
        "cc0f9f95782437e150d00078711fb91661e2dc73db0d8d007f5294075d3d6c4c",
    ("resolve", "cycle", "q"):
        "a11fa41085202cf577562a6cdbcac18526596903f119a7f54fcca6e6e41db608",
    ("resolve", "cycle", "2"):
        "4e385e3eb0341a6e22ef089a69c8830bbf1bcf133716cc8839b84db281f1a5e0",
}


@pytest.mark.parametrize("command,source,field", sorted(DIGESTS))
def test_json_dump_bytes_are_pinned(capsys, tmp_path, command, source,
                                    field):
    key = (command, source, field)
    if source == "cycle":
        source = str(tmp_path / "cycle.txt")
        (tmp_path / "cycle.txt").write_text(CYCLE)
    code = main([command, source, "--field", field, "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS[key]
