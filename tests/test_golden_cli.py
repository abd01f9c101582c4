"""Pin the exact stdout of a spread of CLI commands.

Each command's exit code and the sha256 of its stdout were recorded before
the library's internals were consolidated; any refactor must reproduce
them byte for byte.  To re-pin after an intended output change, print
``_digest`` for each command and review the diff of the outputs first.
"""

import hashlib
import json

import pytest

from toricg import cli

# The associahedron's interval building set on [4], read from a file.
BUILDING_SET = {"ground_size": 4, "sets": [
    [1], [2], [3], [4], [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4],
]}

# (command, exit code, sha256 of stdout); bs4.json holds BUILDING_SET
GOLDEN = [
    ("table --family associahedron --max 8", 0,
     "edb198a06cc73e24a4701018d2e1bd4e698ad41dcc0dc49e232f1af6e783d62d"),
    ("table --family cyclohedron --max 10 --route hetyei --format json", 0,
     "0985eb0c68d32299bbb965fba628fd0c29db6cd6464dbefb30daa5e8ce2fa0e5"),
    ("table --family permutahedron --max 12", 0,
     "c65cb752a6a6deffcbe6897e301303e5c322d64cbc04e47506332ae12900a6e5"),
    ("table --family cube --max 7 --route all", 0,
     "4e23d88f526442b06f68e554c8525444b9587cface6f734fc62debeab7b70731"),
    ("table --family associahedron --max 5 --route direct", 0,
     "215c5ce0ddb7aedfd87490b149d9d19b8d154814825ba5e66670040815c4f39e"),
    ("table --family cyclohedron --max 5 --route direct --format json", 0,
     "9be906386979c054d3174dacf86df38f692a5257ba4599d7a3187100f4a9b56d"),
    ("table --family permutahedron --max 4 --route direct", 0,
     "2bcb380eced0223b4369fb5da6706954747c01013cc65936b7bb67ca8eef65a8"),
    ("table --family permutahedron --max 5 --route all", 0,
     "6250c958f84f09b8b22d5ab957fae031b7b2283fc5928a444958bd10fa9580b2"),
    ("table --building-set bs4.json --route all --format json", 0,
     "a37842ba1c5c52166a78415d5570b322e1a8dc1f568e5fe17ec3231192719ba4"),
    ("table --building-set bs4.json --route hetyei", 0,
     "59342b444a1f65c89a5f19bcb99c669a10265fd142155e490364a7cf6e12b891"),
    ("table --family associahedron --max 60 --unsafe-max", 0,
     "54a4a23d8c4e4f119a49b897f5adc9a6685296e4f55203f0d1aa745d1a7f5176"),
    ("table --family cyclohedron --max 60 --unsafe-max", 0,
     "128516c8ecf7096587736b194d9844702645449ce712f824cfb38704972a4b8b"),
    ("table --family permutahedron --max 60 --unsafe-max", 0,
     "b84ae5fc911e6e4fb736f8271ff483a57048cef04631a788e51be67c0fa22faa"),
    ("table --family cube --max 60 --unsafe-max", 0,
     "b71b04d938b2a6b01f49c9aabc33e58c756d67cac345c3a1d2a393b632e062d1"),
    ("table --family permutahedron --max 60 --unsafe-max --route hetyei --format json", 0,
     "055232aa83a433402d8db290e83aa0268c0703afbcfbb6aaa89125b5a1c41644"),
    ("table --family associahedron --max 13", 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify bijections 4", 0,
     "c80e42b034da2a775e8b3d9e4a00065ed8fd3d46205a53a464d98bd7ecea6573"),
    ("verify compat 4", 0,
     "f9f519896f52bfc69b66b63f0b8cf3641064f4f77613a086d94a05257e0e9662"),
    ("verify series 0", 0,
     "98968abdf8b5b31ea87613a52eefd4f87b538ff5aec0440525081424df0c7f0e"),
    ("verify series 3", 0,
     "e8f69a360b2f6b882cb8ae9f12f5531e0f19bdda3a83b01c5c174c7aab2fed5f"),
    ("verify gamma 5", 0,
     "0ed2ddd454952ddc3d0af3e70d30846aa16d6f9b7db9d37bb96fcda561490e9e"),
    ("verify compat 7", 0,
     "03174b0cf9c02332885fa64656cbf380bc9d5ddca9414eb72f650f9ee6cf7d55"),
    ("verify series 9", 0,
     "cbcdbd4ee77150138ab4fb5735b037b52234104523949a11b981df848497196d"),
    ("verify gamma 8", 0,
     "566a433c94b880ec770641eedd3534b7583fa0ce0ba776570c079699699f8687"),
    ("verify nestohedra 3", 0,
     "ccbeceaeb3be8ca8f0a900bb5948de453a6d3a4368c80a733d9d3e0c7dd079d5"),
    ("verify nestohedra 5", 0,
     "2bc33ee6a5489457e5e4eee550f9b7c5fba79de9b73159549a65332d28598ca0"),
    ("verify gamma 7", 0,
     "17f349a63e23152defaa58c7bbb605199df45298c837590671827d3578acb13b"),
    ("verify nestohedra 6", 0,
     "087978a50b7dde4116b719c7c34a5144bd19f76f4eb68f0068274afcf61acf6d"),
    ("table --family permutahedron --max 6 --route direct", 0,
     "53261d073ed1bff805f7f09d92f1f17d3f5cc1d64b933fe4a206fba3b3800361"),
    ("verify conjectures 6", 0,
     "f317298820d8ca6306227aef09782c48b3e2784ff7d2fc11e6035e7f0930d9d4"),
    ("verify bijections 2 --unsafe-max", 0,
     "86c73368589787daeda58b9c95d2761edcda34797a7d132a55cdc32b9848ab0c"),
    ("enumerate dyck 4", 0,
     "94f4f24c801b142717d32cd90d5cf01013be84ca3fef31edbcbed93c89c54abc"),
    ("enumerate parking_functions_123 4", 0,
     "f2f4d4c43248ee37415d3a93160f1e278b36dd379d90a934a48e623feafb48cf"),
    ("enumerate parking_trees 2", 0,
     "b489121158b206580b89de9a62f6676532cbaf8385f851e4294a83fe07a55c77"),
    ("enumerate parking_trees 3", 0,
     "ae140efcd0a5f4beb887ce334de3a266efdd294f1c069baa39e3d8b6d064d83a"),
    ("enumerate parking_trees 3 --count-only", 0,
     "a4b2c5db15348c29451e18b8307e5ef81625ea638e807935f39ceaa8d9ac7758"),
    ("enumerate b_perms 3 --bs-family interpolation --r 2", 0,
     "00cd2bd24a5c1a05469388f804b83b14d2b4aed94b50a9dbc0bfe4547fc951fe"),
    ("enumerate b_perms 3 --building-set bs4.json", 0,
     "0f29ec2ac2b81b375f99d94884fdc56f3a46ef929c343cf7e3c4c9fb78a4680a"),
    ("enumerate dyck 11", 0,
     "dfba36bc75f1eb70f53bcba42cea451a3c4228ad926450da114095fd86d6f264"),
    ("enumerate parking_trees 5", 0,
     "0f6eaf2354e490fcd2d690e3a9fcd74b5c97dbfac26cf43ced04ef34a0ac1531"),
    ("enumerate dyck 0", 0,
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("enumerate parking_trees 0", 0,
     "7728c54229a0487ad161289d9fb5edd054c8ce67a9404ba6748deee4ea44eaea"),
]

# (command, bytes, lines) of the longest streams, beside their digests above
STREAM_SIZES = [
    ("enumerate dyck 11", 1_352_078, 58_786),
    ("enumerate parking_trees 5", 950_400, 14_400),
    ("enumerate dyck 0", 1, 1),
    ("enumerate parking_trees 0", 6, 1),
]


def _digest(capsys, command):
    code = cli.main(command.split())
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_golden_stdout(command, code, digest, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bs4.json").write_text(json.dumps(BUILDING_SET))
    assert _digest(capsys, command) == (code, digest)


@pytest.mark.parametrize("command,size,lines", STREAM_SIZES, ids=[c for c, _, _ in STREAM_SIZES])
def test_stream_sizes(command, size, lines, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert (len(out.encode()), out.count("\n")) == (size, lines)


def test_golden_usage_error(capsys):
    """argparse's usage and "invalid choice" text for an unknown suite,
    pinned by the sha256 of stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch", "3"])
    err = capsys.readouterr().err
    assert (exc.value.code, hashlib.sha256(err.encode()).hexdigest()) == (
        2, "670feb8150f359fca9d36751fbc89652246f97bfc5fd89c8407946db1aafd304")
