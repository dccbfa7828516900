"""Byte-for-byte pins of the JSON dumps that carry representative choices.

Betti tables and t-sequences do not see which echelon cycles the synor
build picks, nor which differentials the resolution reports.  These
sha256 digests of `synor --format json` and `resolve --format json` do:
a change of elimination order, pivot rule or witness tracking that moves
a representative changes a digest.  The corpus forms have multiplicity 1
at every element, so the three-cycle ideal (xy, xz, yz), whose top
carries two classes, pins how a basis of several cycles is chosen.
kpq(5,3) and B6 (powers:6,1) are lattices whose atom-complement
quotients are far smaller than their down-sets, so they pin that the
ranks taken on a quotient leave the full-complex witness pass, and the
cycles it picks, as they were.

A second set pins the outputs that read joins or the lattice
enumeration: the decomposition witnesses, the subadditivity witness
lines, the enumerated lattices with their hashes, the lattice dump, and
a shuffle product's suffix joins.  @random:3,4,6,3 and @powers:4,2 have
labels that are not squarefree, so degree differs from rank, and
several multidegrees of extremal degree per column: their subadditivity
lines pin the order in which those multidegrees are searched.
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
    ("synor", "@kpq:5,3", "q"):
        "06b8e8585d897c5df7121972dd357f42ca70f7e2f27e67e39345ac6da143dcf4",
    ("synor", "@kpq:5,3", "2"):
        "69bb7145b23d6058ae9231fe01226934b23fe273a37a2b43724e764dbfe2ec6b",
    ("resolve", "@powers:6,1", "q"):
        "72f890b884b81d9bb8e3dd5f4be059a2c746607da981f58e5929176ef6ca2531",
    ("resolve", "@powers:6,1", "2"):
        "7ff61a59162a722175902b32b6f9626be8a9cf7ab25daa768e141f6ffb2c45bf",
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


ARGV_DIGESTS = {
    ("verify", "lattices", "--max", "6"):
        "a96ed9cb79d718e95dbc0d8f6a1202b03cbc86c5dbdb2dde003c99b4ae7ae05f",
    ("verify", "lattices", "--max", "8", "--field", "q"):
        "79ad0d48b95f94701fd1816e121ff937443009de0a971ac13db48105a1206954",
    ("verify", "lattices", "--max", "8", "--field", "2"):
        "79ad0d48b95f94701fd1816e121ff937443009de0a971ac13db48105a1206954",
    ("verify", "lattices", "--max", "9", "--field", "q"):
        "c6cc7b545150756c1bcac4e0f8fb73ea0866b680d9b1548f8d1cb2555a5eed9b",
    ("verify", "lattices", "--max", "9", "--field", "2"):
        "c6cc7b545150756c1bcac4e0f8fb73ea0866b680d9b1548f8d1cb2555a5eed9b",
    ("verify", "decomposition", "@kpq:3,2", "--field", "q"):
        "d7a123e4ad75a69d8815c956d60ccf20751fd4b7b0456871193949a9a5b1deb6",
    ("verify", "decomposition", "@kpq:3,2", "--field", "2"):
        "d7a123e4ad75a69d8815c956d60ccf20751fd4b7b0456871193949a9a5b1deb6",
    ("verify", "decomposition", "@example62", "--field", "q"):
        "8f200da13ed1e0617f7989ac4ad4459f31bc4ab1b73134ec376c92713a639380",
    ("verify", "decomposition", "@example62", "--field", "2"):
        "8f200da13ed1e0617f7989ac4ad4459f31bc4ab1b73134ec376c92713a639380",
    ("verify", "decomposition", "@powers:4,1", "--field", "q"):
        "56b4e261833d19b5998cbd5353327c8ad80ad1d1409ce505eb1e0f53667ca30f",
    ("verify", "subadditivity", "@example62", "--field", "q"):
        "9b89fb642545e11c9ce95ad622885687729fe7515367d698dd768d5de6c0b985",
    ("verify", "subadditivity", "@example62", "--field", "2"):
        "9b89fb642545e11c9ce95ad622885687729fe7515367d698dd768d5de6c0b985",
    ("verify", "subadditivity", "@kpq:4,3", "--field", "q"):
        "d51b5b52e9d4be1c0d920b531e67abdfde9bc0e8fe564b89245a63953877c86e",
    ("verify", "subadditivity", "@kpq:4,3", "--field", "2"):
        "d51b5b52e9d4be1c0d920b531e67abdfde9bc0e8fe564b89245a63953877c86e",
    ("verify", "subadditivity", "@random:3,4,6,3", "--field", "q"):
        "a050a1a5309e16a95dd9a5d71f594e1221ad1590917118d7de672bb071bff7ff",
    ("verify", "subadditivity", "@random:3,4,6,3", "--field", "2"):
        "a050a1a5309e16a95dd9a5d71f594e1221ad1590917118d7de672bb071bff7ff",
    ("verify", "subadditivity", "@powers:4,2", "--field", "q"):
        "4f4325a9c5f9596afae3236a5fcd4e8272156ad620a6cee04264a6a4238fbb21",
    ("verify", "subadditivity", "@powers:4,2", "--field", "2"):
        "4f4325a9c5f9596afae3236a5fcd4e8272156ad620a6cee04264a6a4238fbb21",
    ("lattice", "@kpq:4,3", "--format", "json"):
        "40a271c1264aed7eb406b795a461cb2a98baf7ca7e5dc98c84676f757d54aeda",
    ("lattice", "@random:3,4,6,3"):
        "43720a85a898332b72fd56cd4359cfdfee78b788168da577c65581d4a4b1a4a3",
    ("shuffle-demo", "@powers:3,1", "x1*x2>x1", "x3", "--format", "json"):
        "aa8c5d2ede17272221ab11005406d59c2d0629061e49407fa76d20ada853af2e",
}


@pytest.mark.parametrize("argv", sorted(ARGV_DIGESTS), ids=" ".join)
def test_join_reading_output_bytes_are_pinned(capsys, argv):
    code = main(list(argv))
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ARGV_DIGESTS[argv]
