"""Vault documents, both store backends, the HTTP service and the client."""

import http.client
import json
import random
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import pytest
import requests
from hypothesis import given, settings, strategies as st

from fuzzyvault.aligner import MatchParams
from fuzzyvault import client as client_module
from fuzzyvault.client import UnknownUser, enroll, verify
from fuzzyvault.decoder import (
    ITERATIVE_SELECTION,
    RANDOM_GENERATION,
    SubsetStrategy,
)
from fuzzyvault.evaluation import BUILTIN_CONFIGS, perturb_template, synth_template
from fuzzyvault.minutiae import InsufficientMinutiae, read_template
from fuzzyvault import service as service_module
from fuzzyvault import store as store_module
from fuzzyvault.service import VaultStoreService
from fuzzyvault.store import (
    DocumentInvalid,
    FileVaultStore,
    MemoryVaultStore,
    StorageUnavailable,
    UnreadableVaults,
    check_user_id,
    document_from_dict,
    document_from_vault,
    validate_document_dict,
    vault_from_document,
)
from fuzzyvault.vault import VaultParams, encode_vault

ITERATIVE = SubsetStrategy(ITERATIVE_SELECTION)
CONFIG1 = BUILTIN_CONFIGS["fvc-1"]


def small_params():
    return VaultParams(2, 3, 5, 10.0, 400, 560)


def make_doc(user_id="alice", object_id=None, n=2, points=8):
    rng = random.Random(70)
    vault, _ = encode_vault(synth_template(70, 30), small_params(), rng)
    doc = {"user_id": user_id, "n": n, "points": [[x, y] for x, y in vault.points[:points]]}
    return doc if object_id is None else {"id": object_id, **doc}


def write_template(path, template):
    with open(path, "w") as fh:
        for m in template.minutiae:
            fh.write(f"{m.x} {m.y} {m.theta:.4f} {m.quality}\n")


# --- document schema ---

def test_document_dict_round_trip():
    doc = make_doc(object_id="abc123")
    back = document_from_dict(json.loads(json.dumps(doc)))
    assert back == doc


def test_wire_document_omits_id():
    data = make_doc()
    assert set(data) == {"user_id", "n", "points"}
    validate_document_dict(data, require_id=False)
    with pytest.raises(DocumentInvalid):
        validate_document_dict(data, require_id=True)


def test_schema_rejects_surprise_keys():
    data = make_doc(object_id="x")
    data["template"] = [[1, 2, 3]]  # the one thing that must never be stored
    with pytest.raises(DocumentInvalid, match="unexpected"):
        validate_document_dict(data, require_id=True)


@pytest.mark.parametrize("user_id", ["", "a b", "x/../y", "u" * 65, 7, None, "..", ".", "bob\n"])
def test_schema_rejects_bad_user_ids(user_id):
    data = make_doc(object_id="x")
    data["user_id"] = user_id
    with pytest.raises(DocumentInvalid):
        validate_document_dict(data, require_id=True)


# Any JSON value, and objects with the document's keys holding any JSON
# value or one close to a valid field, so every check gets reached.
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)
_document_like = st.fixed_dictionaries(
    {
        "user_id": _json | st.from_regex(r"[A-Za-z0-9._-]{1,65}", fullmatch=True),
        "n": _json | st.integers(-1, 4),
        "points": _json | st.lists(st.lists(st.integers(-1, 1 << 32), min_size=2, max_size=2)),
    },
    optional={"id": _json | st.text(min_size=1)},
)


@settings(max_examples=300, deadline=None)
@given(data=_json | _document_like, require_id=st.booleans())
def test_schema_accepts_or_rejects_any_json_without_crashing(data, require_id):
    try:
        validate_document_dict(data, require_id)
    except DocumentInvalid:
        pass


def test_schema_rejects_malformed_points():
    base = make_doc(object_id="x")
    for bad in (
        [[1, 2], [3]],  # not a pair
        [[1, 2], [3, 4, 5]],
        [[1, "2"]] * 8,
        [[1, 2.5]] * 8,
        [[1, True]] * 8,
        [[-1, 2]] * 8,
        [[1 << 32, 2]] * 8,
        [[1, 2]],  # fewer than n+1
        "points",
    ):
        data = dict(base, points=bad)
        with pytest.raises(DocumentInvalid):
            validate_document_dict(data, require_id=True)


def test_schema_rejects_bad_degree():
    data = make_doc(object_id="x")
    for bad in (0, -3, True, "8", 2.0):
        with pytest.raises(DocumentInvalid):
            validate_document_dict(dict(data, n=bad), require_id=True)


def test_vault_from_document_needs_matching_config():
    rng = random.Random(71)
    vault, _ = encode_vault(synth_template(71, 30), small_params(), rng)
    doc = document_from_vault(vault, "alice")
    back = vault_from_document(doc, small_params())
    assert back.points == vault.points
    with pytest.raises(DocumentInvalid):
        vault_from_document(doc, VaultParams(3, 4, 4, 10.0, 400, 560))


# --- stores ---

@pytest.fixture(params=["memory", "file"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryVaultStore()
    return FileVaultStore(tmp_path / "vaults")


def test_store_round_trip(store):
    doc = make_doc()
    object_id = store.put(doc)
    assert object_id
    fetched = store.fetch("alice")
    assert len(fetched) == 1
    assert fetched[0]["id"] == object_id
    assert fetched[0]["user_id"] == doc["user_id"]
    assert fetched[0]["n"] == doc["n"]
    assert fetched[0]["points"] == doc["points"]


def test_stored_documents_cannot_be_altered(store):
    doc = make_doc()
    object_id = store.put(doc)
    original = {"id": object_id, **make_doc()}
    doc["n"] = 5  # the dict the caller passed to put
    doc["points"][0][1] ^= 1
    fetched = store.fetch("alice")
    fetched[0]["user_id"] = "bob"  # a dict fetch returned
    fetched[0]["points"][1][0] ^= 1
    fetched[0]["points"].pop()
    assert store.fetch("alice") == [original]


def test_store_unknown_user_empty(store):
    assert store.fetch("nobody") == []


def test_store_many_docs_one_user(store):
    ids = {store.put(make_doc()) for _ in range(4)}
    assert len(ids) == 4  # object ids stay unique
    assert len(store.fetch("alice")) == 4


@pytest.mark.parametrize("object_id", ["../../escaped", "v1"])
def test_store_refuses_a_caller_chosen_id(store, tmp_path, object_id):
    with pytest.raises(DocumentInvalid, match="unexpected \\['id'\\]"):
        store.put(make_doc(object_id=object_id))
    assert store.fetch("alice") == []
    assert [p for p in tmp_path.rglob("*") if not p.is_dir()] == []  # nothing written anywhere


def test_store_rejects_invalid_user_on_fetch(store):
    for user_id in ("../../etc", "..", ".", "bob\n"):
        with pytest.raises(DocumentInvalid):
            store.fetch(user_id)


def test_file_store_layout_and_atomicity(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    object_id = store.put(make_doc(user_id="bob"))
    path = root / "bob" / f"{object_id}.json"
    assert path.is_file()
    assert not list(root.rglob("*.tmp"))  # temp files never survive
    validate_document_dict(json.loads(path.read_text()), require_id=True)


def test_file_store_reaps_stale_temp_files(tmp_path):
    root = tmp_path / "vaults"
    object_id = FileVaultStore(root).put(make_doc(user_id="bob"))
    stale = root / "bob" / ".deadbeef.tmp"  # a writer crashed before os.replace
    stale.write_text("{ half")
    kept = [root / "bob" / f"{object_id}.json", root / "bob" / ".hidden.json",
            root / "bob" / "notes.tmp"]
    for path in kept[1:]:
        path.write_text("{}")
    store = FileVaultStore(root)
    assert not stale.exists()
    assert all(path.exists() for path in kept)
    assert [d["id"] for d in store.fetch("bob")] == [object_id]


def test_file_store_skips_dotfiles(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    store.put(make_doc(user_id="bob"))
    (root / "bob" / ".hidden.json").write_text("{}")
    assert len(store.fetch("bob")) == 1


# A file in the layout earlier stores wrote, json.dumps(..., indent=2).
_INDENTED_FILE = """{
  "id": "0f1e2d3c",
  "user_id": "bob",
  "n": 1,
  "points": [
    [
      7,
      4294967295
    ],
    [
      0,
      12
    ]
  ]
}"""


def test_file_store_reads_indented_files(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    (root / "bob").mkdir()
    (root / "bob" / "0f1e2d3c.json").write_text(_INDENTED_FILE)
    assert store.fetch("bob") == [
        {"id": "0f1e2d3c", "user_id": "bob", "n": 1, "points": [[7, 2**32 - 1], [0, 12]]}
    ]


def test_file_store_writes_compact_files(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    doc = make_doc(user_id="bob")
    object_id = store.put(doc)
    raw = (root / "bob" / f"{object_id}.json").read_bytes()
    stored = {"id": object_id, **doc}
    assert raw == json.dumps(stored, separators=(",", ":")).encode()
    assert b" " not in raw and b"\n" not in raw
    assert store.fetch("bob") == [stored]


# One stored file, byte for byte: the at-rest format of make_doc(user_id="bob")
# filed under the object id "v1".
_PINNED_FILE = (
    b'{"id":"v1","user_id":"bob","n":2,"points":[[315054540,3315229705],[421571351,1354999308],'
    b'[161586991,3704075512],[344044702,1184694337],[723744475,1616446857],'
    b'[27540941,4004041849],[440800496,3353607155],[696330756,3819694717]]}'
)


def test_file_store_bytes_are_pinned(tmp_path):
    object_id = FileVaultStore(tmp_path).put(make_doc(user_id="bob"))
    assert re.fullmatch("[0-9a-f]{32}", object_id)  # uuid4().hex
    assert (tmp_path / "bob" / f"{object_id}.json").read_bytes() == _PINNED_FILE.replace(
        b'"v1"', f'"{object_id}"'.encode(), 1)


# A stored file that is not JSON, one that is JSON but breaks the schema, and
# one nested past the json parser's recursion limit.
_CORRUPT_FILES = [
    "{ not json",
    json.dumps({"id": "x", "user_id": "bob", "n": 2, "points": [[1.9, True]]}),
    "[" * 100_000,
]


def test_file_store_corrupt_document(tmp_path):
    # the request was fine and the store is not: a server fault, not DocumentInvalid
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    object_id = store.put(make_doc(user_id="bob"))
    for content in _CORRUPT_FILES:
        (root / "bob" / f"{object_id}.json").write_text(content)
        with pytest.raises(StorageUnavailable, match="corrupt vault file"):
            store.fetch("bob")


def test_file_store_corrupt_document_keeps_the_readable_ones(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    good = store.put(make_doc(user_id="bob"))
    bad = store.put(make_doc(user_id="bob"))
    (root / "bob" / f"{bad}.json").write_text("{ not json")
    with pytest.raises(UnreadableVaults, match="corrupt vault file") as info:
        store.fetch("bob")
    assert [d["id"] for d in info.value.readable] == [good]
    assert info.value.unreadable == 1


def test_file_store_counts_a_misfiled_document_as_unreadable(tmp_path):
    # a copy of bob's file in alice's directory is the store's fault, as a corrupt file is
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    own = store.put(make_doc(user_id="alice"))
    bobs = store.put(make_doc(user_id="bob"))
    (root / "alice" / f"{bobs}.json").write_bytes((root / "bob" / f"{bobs}.json").read_bytes())
    with pytest.raises(UnreadableVaults, match="corrupt vault file.*'bob'") as info:
        store.fetch("alice")
    assert [d["id"] for d in info.value.readable] == [own]
    assert info.value.unreadable == 1
    assert [d["id"] for d in store.fetch("bob")] == [bobs]


def test_file_store_counts_a_file_it_cannot_read_as_unreadable(tmp_path):
    # reading a *.json entry can fail (EISDIR here, EACCES or EIO elsewhere): that
    # entry is unreadable, as a corrupt file is, and the readable vault still comes back
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    own = store.put(make_doc(user_id="alice"))
    (root / "alice" / "zzzz.json").mkdir()
    with pytest.raises(UnreadableVaults, match="zzzz.json") as info:
        store.fetch("alice")
    assert [d["id"] for d in info.value.readable] == [own]
    assert info.value.unreadable == 1


def test_file_store_unavailable_root(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    with pytest.raises(StorageUnavailable):
        FileVaultStore(blocker / "vaults")


def test_file_store_concurrent_puts(tmp_path):
    # 8 writers and 2 readers, all on one user: every fetch sees only
    # whole documents
    store = FileVaultStore(tmp_path / "vaults")
    errors = []
    writing = threading.Event()
    writing.set()
    expected = make_doc(user_id="crowd")

    def worker():
        try:
            for _ in range(5):
                store.put(make_doc(user_id="crowd"))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def reader():
        try:
            while writing.is_set():
                for doc in store.fetch("crowd"):
                    assert doc["points"] == expected["points"]
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    writers = [threading.Thread(target=worker) for _ in range(8)]
    readers = [threading.Thread(target=reader) for _ in range(2)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join()
    writing.clear()
    for t in readers:
        t.join()
    assert not errors
    docs = store.fetch("crowd")
    assert len(docs) == 40
    assert len({d["id"] for d in docs}) == 40
    assert not list((tmp_path / "vaults" / "crowd").glob(".*.tmp"))


# --- HTTP service ---

@pytest.fixture
def service(tmp_path):
    wire = []
    svc = VaultStoreService(FileVaultStore(tmp_path / "vaults"), port=0, wire_log=wire)
    with svc:
        yield svc, wire


def test_service_health(service):
    svc, _ = service
    resp = requests.get(f"{svc.url}/health", timeout=5)
    assert resp.status_code == 200
    assert resp.json() == {"status": "ok"}


def test_service_post_and_get(service):
    svc, wire = service
    payload = make_doc()
    resp = requests.post(f"{svc.url}/vaults", json=payload, timeout=5)
    assert resp.status_code == 201
    object_id = resp.json()["object_id"]

    got = requests.get(f"{svc.url}/vaults", params={"user_id": "alice"}, timeout=5)
    assert got.status_code == 200
    vaults = got.json()["vaults"]
    assert len(vaults) == 1 and vaults[0]["id"] == object_id
    validate_document_dict(vaults[0], require_id=True)

    methods = [(e["method"], e["status"]) for e in wire]
    assert ("POST", 201) in methods and ("GET", 200) in methods


def test_service_get_body_is_the_stored_files_joined(tmp_path):
    root = tmp_path / "vaults"
    store = FileVaultStore(root)
    for _ in range(2):
        store.put(make_doc(user_id="bob"))
    joined = b", ".join(p.read_bytes() for p in sorted((root / "bob").glob("*.json")))
    with VaultStoreService(store, port=0) as svc:
        whole = requests.get(f"{svc.url}/vaults", params={"user_id": "bob"}, timeout=5).content
        (root / "bob" / "zz.json").write_text("{ not json")  # sorts after the hex ids
        partial = requests.get(f"{svc.url}/vaults", params={"user_id": "bob"}, timeout=5).content
    assert whole == b'{"vaults": [' + joined + b"]}"
    assert partial == b'{"vaults": [' + joined + b'], "unreadable": 1}'


# A stored document as json.loads reads it but the stores do not write it: with
# a UTF-8 BOM, as UTF-16 with and without its BOM (every other byte NUL, all
# ASCII), and indented.
_AT_REST = {
    "utf-8-bom": lambda doc: b"\xef\xbb\xbf" + json.dumps(doc).encode(),
    "utf-16": lambda doc: json.dumps(doc).encode("utf-16"),
    "utf-16-le": lambda doc: json.dumps(doc).encode("utf-16-le"),
    "indented": lambda doc: json.dumps(doc, indent=2).encode(),
}


@pytest.mark.parametrize("encoding", sorted(_AT_REST))
def test_reply_gives_the_client_the_documents_fetch_read(store, encoding):
    store.put(make_doc(user_id="bob"))
    doc = {"id": "0f1e2d3c", **make_doc(user_id="bob")}
    raw = _AT_REST[encoding](doc)
    if isinstance(store, FileVaultStore):
        (store.root / "bob" / "0f1e2d3c.json").write_bytes(raw)
    else:
        store._by_user["bob"].append(raw)  # the bytes it keeps, as a file would hold them
    fetched = store.fetch("bob")
    assert len(fetched) == 2 and doc in fetched
    with VaultStoreService(store, port=0) as svc:
        assert client_module._get_vaults(svc.url, "bob") == (fetched, 0)


def test_service_validates_a_post_once(monkeypatch):
    calls = []

    def counted(data, require_id):
        calls.append(require_id)
        return validate_document_dict(data, require_id)

    monkeypatch.setattr(store_module, "validate_document_dict", counted)
    with VaultStoreService(MemoryVaultStore(), port=0) as svc:
        resp = requests.post(f"{svc.url}/vaults", data=_WIRE_DOC, timeout=5)
    assert resp.status_code == 201
    assert calls == [False]  # the store's put, and nothing else


def test_service_rejects_bad_documents(service):
    svc, _ = service
    bad = make_doc()
    bad["minutiae"] = [[1, 2, 3]]
    resp = requests.post(f"{svc.url}/vaults", json=bad, timeout=5)
    assert resp.status_code == 400
    resp = requests.post(f"{svc.url}/vaults", data=b"{ nope", timeout=5)
    assert resp.status_code == 400


def test_service_unknown_path_and_missing_query(service):
    svc, _ = service
    assert requests.get(f"{svc.url}/nope", timeout=5).status_code == 404
    assert requests.get(f"{svc.url}/vaults", timeout=5).status_code == 400


def test_service_refuses_dot_user_ids(service, tmp_path):
    svc, _ = service
    payload = make_doc(user_id="..")
    assert requests.post(f"{svc.url}/vaults", json=payload, timeout=5).status_code == 400
    for user_id in ("..", "."):
        resp = requests.get(f"{svc.url}/vaults", params={"user_id": user_id}, timeout=5)
        assert resp.status_code == 400
    assert [p.name for p in tmp_path.iterdir()] == ["vaults"]
    assert not list((tmp_path / "vaults").iterdir())  # nothing written inside either


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_service_rejects_malformed_content_length(service, length):
    svc, wire = service
    url = urlparse(svc.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
    try:
        conn.putrequest("POST", "/vaults")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders(b"{}")
        resp = conn.getresponse()
        assert resp.status == 400
        assert set(json.loads(resp.read())) == {"error"}
    finally:
        conn.close()
    assert (wire[-1]["method"], wire[-1]["status"]) == ("POST", 400)


def test_service_rejects_body_that_is_not_utf8(service):
    svc, _ = service
    resp = requests.post(f"{svc.url}/vaults", data=b'{"user_id": "\xff"}', timeout=5)
    assert resp.status_code == 400
    assert set(resp.json()) == {"error"}
    assert requests.get(f"{svc.url}/health", timeout=5).status_code == 200


def test_service_drops_a_client_that_stops_mid_body(monkeypatch):
    # without a read timeout the handler thread waits for the other 95 bytes forever
    monkeypatch.setattr(service_module, "_READ_TIMEOUT", 0.5)
    with VaultStoreService(MemoryVaultStore(), port=0) as svc:
        url = urlparse(svc.url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(b"POST /vaults HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"a\":")
            t0 = time.perf_counter()
            assert sock.recv(1024) == b""  # closed with no reply, not a socket timeout
            assert time.perf_counter() - t0 < 3
        assert requests.get(f"{svc.url}/health", timeout=5).status_code == 200


def test_service_survives_a_client_that_hangs_up_mid_body(capfd):
    # the short body is answered 400 into a closed socket; the write fails
    # and must not reach socketserver's traceback printer
    wire = []
    with VaultStoreService(MemoryVaultStore(), port=0, wire_log=wire) as svc:
        url = urlparse(svc.url)
        before = set(threading.enumerate())
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.sendall(b"POST /vaults HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{\"a\":")
        deadline = time.monotonic() + 5
        while not wire and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [(e["method"], e["status"]) for e in wire] == [("POST", 400)]
        for handler in set(threading.enumerate()) - before:
            handler.join(timeout=5)  # its reply write, and any traceback, are done
            assert not handler.is_alive()
        assert requests.get(f"{svc.url}/health", timeout=5).status_code == 200
    assert "Traceback" not in capfd.readouterr().err


def test_service_stop_is_prompt():
    # serve_forever only notices shutdown between polls, so a long poll
    # interval would show here as up to that long per stop
    elapsed = 0.0
    for _ in range(5):
        svc = VaultStoreService(MemoryVaultStore(), port=0).start()
        assert requests.get(f"{svc.url}/health", timeout=5).status_code == 200
        t0 = time.perf_counter()
        svc.stop()
        elapsed += time.perf_counter() - t0
    assert elapsed < 0.5


class _FaultyStore:
    """Checks user ids and documents as both stores do, then raises fault if one is set."""

    def __init__(self, docs, fault):
        self.docs = docs
        self.fault = fault

    def fetch(self, user_id):
        check_user_id(user_id)
        if self.fault is not None:
            raise self.fault
        return self.docs

    def put(self, doc):
        validate_document_dict(doc, require_id=False)
        if self.fault is not None:
            raise self.fault
        return "stored-id"


_STORED = make_doc(object_id="v1")
_WIRE_DOC = json.dumps(make_doc()).encode()
_BAD_SCHEMA = json.dumps({**make_doc(), "minutiae": [[1, 2, 3]]}).encode()
_TEN_BYTES = b'{"n": 123}'
_GET_KEYS = {"method", "path", "status", "response"}
_USER_KEYS = _GET_KEYS | {"user_id"}
_BODY_KEYS = _GET_KEYS | {"request"}
_DOWN = "store is down"

# (method, target, body, Content-Length or None for len(body), store fault,
#  status, response, wire_log keys); every status the service can answer
_FAULT_MAP = {
    "health": ("GET", "/health", b"", None, None, 200, {"status": "ok"}, _GET_KEYS),
    "get": ("GET", "/vaults?user_id=alice", b"", None, None,
            200, {"vaults": [_STORED]}, _USER_KEYS),
    "get-no-user": ("GET", "/vaults", b"", None, None,
                    400, {"error": "exactly one user_id is required"}, _USER_KEYS),
    "get-two-users": ("GET", "/vaults?user_id=alice&user_id=bob", b"", None, None,
                      400, {"error": "exactly one user_id is required"}, _USER_KEYS),
    "get-dots": ("GET", "/vaults?user_id=..", b"", None, None, 400,
                 {"error": "user_id must match [A-Za-z0-9._-]{1,64} and not be all dots"},
                 _USER_KEYS),
    "get-store-down": ("GET", "/vaults?user_id=alice", b"", None, StorageUnavailable(_DOWN),
                       503, {"error": _DOWN}, _USER_KEYS),
    "get-some-unreadable": ("GET", "/vaults?user_id=alice", b"", None,
                            UnreadableVaults("1 corrupt", [_STORED], 1),
                            200, {"vaults": [_STORED], "unreadable": 1}, _USER_KEYS),
    "get-all-unreadable": ("GET", "/vaults?user_id=alice", b"", None,
                           UnreadableVaults("2 corrupt", [], 2),
                           503, {"error": "2 corrupt"}, _USER_KEYS),
    "get-unknown": ("GET", "/nope", b"", None, None, 404, {"error": "unknown path"}, _GET_KEYS),
    "post": ("POST", "/vaults", _WIRE_DOC, None, None,
             201, {"object_id": "stored-id"}, _BODY_KEYS),
    "post-no-body": ("POST", "/vaults", b"", None, None,
                     400, {"error": "missing, malformed or oversized body"}, _GET_KEYS),
    "post-bad-length": ("POST", "/vaults", b"{}", "abc", None,
                        400, {"error": "missing, malformed or oversized body"}, _GET_KEYS),
    # int() reads both as 10, the body's length; only ASCII digits are a length
    "post-length-underscore": ("POST", "/vaults", _TEN_BYTES, "1_0", None,
                               400, {"error": "missing, malformed or oversized body"}, _GET_KEYS),
    "post-length-signed": ("POST", "/vaults", _TEN_BYTES, " +10 ", None,
                           400, {"error": "missing, malformed or oversized body"}, _GET_KEYS),
    "post-oversized": ("POST", "/vaults", b"", str(9 << 20), None,
                       400, {"error": "missing, malformed or oversized body"}, _GET_KEYS),
    "post-bad-json": ("POST", "/vaults", b"{ nope", None, None,
                      400, {"error": "body is not valid JSON"}, _GET_KEYS),
    "post-deep-json": ("POST", "/vaults", b"[" * 100_000, None, None,
                       400, {"error": "body is not valid JSON"}, _GET_KEYS),
    "post-not-utf8": ("POST", "/vaults", b'{"user_id": "\xff"}', None, None,
                      400, {"error": "body is not valid JSON"}, _GET_KEYS),
    "post-schema": ("POST", "/vaults", _BAD_SCHEMA, None, None,
                    400, {"error": "bad document keys: missing [], unexpected ['minutiae']"}, _BODY_KEYS),
    "post-store-down": ("POST", "/vaults", _WIRE_DOC, None, StorageUnavailable(_DOWN),
                        503, {"error": _DOWN}, _BODY_KEYS),
    "post-unknown": ("POST", "/nope", _WIRE_DOC, None, None,
                     404, {"error": "unknown path"}, _GET_KEYS),
    "post-health": ("POST", "/health", _WIRE_DOC, None, None,
                    404, {"error": "unknown path"}, _GET_KEYS),
}


@pytest.mark.parametrize("case", sorted(_FAULT_MAP))
def test_service_fault_map(case):
    method, target, body, length, fault, status, response, keys = _FAULT_MAP[case]
    wire = []
    with VaultStoreService(_FaultyStore([_STORED], fault), port=0, wire_log=wire) as svc:
        url = urlparse(svc.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=5)
        try:
            conn.putrequest(method, target)
            if method == "POST":
                conn.putheader("Content-Length", str(len(body)) if length is None else length)
            conn.endheaders(body or None)
            resp = conn.getresponse()
            got = (resp.status, resp.getheader("Content-Type"), json.loads(resp.read()))
        finally:
            conn.close()
    assert got == (status, "application/json", response)
    [entry] = wire
    assert set(entry) == keys
    assert (entry["method"], entry["path"]) == (method, urlparse(target).path)
    assert (entry["status"], entry["response"]) == (status, response)
    if "request" in keys:
        assert entry["request"] == json.loads(body)
    if "user_id" in keys:
        assert entry["user_id"] == (parse_qs(urlparse(target).query).get("user_id") or [None])[0]


# --- client flows ---

@pytest.fixture
def live(tmp_path):
    svc = VaultStoreService(FileVaultStore(tmp_path / "vaults"), port=0)
    with svc:
        yield svc


def test_client_enroll_verify_round_trip(tmp_path, live):
    params = small_params()
    base = synth_template(72, 40)
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, base)

    object_id, secret = enroll(enroll_path, "carol", live.url, params, random.Random(73))
    assert object_id and len(secret) == 4 * params.degree
    assert not enroll_path.exists()  # destroyed only after the 201

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, perturb_template(base, rotation=3.0, translation=(2.0, 1.0),
                                                jitter=1.0, rng=random.Random(74)))
    accepted = verify(probe_path, "carol", live.url, params,
                      MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(75))
    assert accepted
    assert not probe_path.exists()  # decision reached, probe destroyed


def test_client_rejects_impostor_and_deletes_probe(tmp_path, live):
    params = small_params()
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, synth_template(76, 40))
    enroll(enroll_path, "dave", live.url, params, random.Random(77))

    probe_path = tmp_path / "impostor.xyt"
    write_template(probe_path, synth_template(78, 40))
    accepted = verify(probe_path, "dave", live.url, params,
                      MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(79))
    assert not accepted
    assert not probe_path.exists()


def test_client_unknown_user(tmp_path, live):
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(80, 40))
    with pytest.raises(UnknownUser):
        verify(probe_path, "never-enrolled", live.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(81))
    assert not probe_path.exists()  # unknown user is still a decision


def _enroll_lena_and_write_probe(tmp_path, live, probe_minutiae):
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, synth_template(5, 60))
    enroll(enroll_path, "lena", live.url, CONFIG1.vault_params(), random.Random(1))
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(5, probe_minutiae))
    return probe_path


@pytest.mark.parametrize("probe_minutiae, strategy, error", [
    (20, ITERATIVE, InsufficientMinutiae),  # fewer than fvc-1's genuine_count of 30
], ids=["sparse-probe"])
def test_client_keeps_probe_when_decoding_raises(tmp_path, live, probe_minutiae, strategy, error):
    probe_path = _enroll_lena_and_write_probe(tmp_path, live, probe_minutiae)
    with pytest.raises(error):
        verify(probe_path, "lena", live.url, CONFIG1.vault_params(), CONFIG1.match_params(),
               strategy, random.Random(2))
    assert probe_path.exists()  # a fault while decoding is no decision


def test_client_past_the_subset_budget_accepts_and_deletes_probe(tmp_path, live):
    # C(31, 9) subsets, past the real budget: the strongest 23 candidates still decide
    probe_path = _enroll_lena_and_write_probe(tmp_path, live, 60)
    assert verify(probe_path, "lena", live.url, CONFIG1.vault_params(), CONFIG1.match_params(),
                  SubsetStrategy(RANDOM_GENERATION), random.Random(2))
    assert not probe_path.exists()  # a decision destroys the probe


def test_client_keeps_probe_when_vault_config_mismatches(tmp_path, live):
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, synth_template(91, 40))
    enroll(enroll_path, "gina", live.url, small_params(), random.Random(92))

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(91, 40))
    other = VaultParams(3, 4, 4, 10.0, 400, 560)  # wrong degree and point count
    with pytest.raises(DocumentInvalid):
        verify(probe_path, "gina", live.url, other,
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(93))
    assert probe_path.exists()  # no decision was reached


@pytest.mark.parametrize("content", _CORRUPT_FILES, ids=["not-json", "schema", "deep"])
def test_corrupt_stored_vault_is_503_and_keeps_probe(tmp_path, live, content):
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, synth_template(94, 40))
    object_id, _ = enroll(enroll_path, "hana", live.url, small_params(), random.Random(95))
    (tmp_path / "vaults" / "hana" / f"{object_id}.json").write_text(content)

    resp = requests.get(f"{live.url}/vaults", params={"user_id": "hana"}, timeout=5)
    assert resp.status_code == 503
    assert set(resp.json()) == {"error"}

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(94, 40))
    with pytest.raises(StorageUnavailable):
        verify(probe_path, "hana", live.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(96))
    assert probe_path.exists()  # no decision was reached


def enroll_good_and_corrupt(tmp_path, live, user_id, finger):
    """Enroll finger twice for user_id, then corrupt the second file."""
    ids = []
    for i in range(2):
        enroll_path = tmp_path / f"enroll{i}.xyt"
        write_template(enroll_path, finger)
        object_id, _ = enroll(enroll_path, user_id, live.url, small_params(),
                              random.Random(97 + i))
        ids.append(object_id)
    (tmp_path / "vaults" / user_id / f"{ids[1]}.json").write_text("{ not json")
    return ids


def test_one_corrupt_vault_leaves_the_others_readable(tmp_path, live):
    finger = synth_template(98, 40)
    good, _ = enroll_good_and_corrupt(tmp_path, live, "ivan", finger)

    resp = requests.get(f"{live.url}/vaults", params={"user_id": "ivan"}, timeout=5)
    assert resp.status_code == 200
    body = resp.json()
    assert [v["id"] for v in body["vaults"]] == [good]
    assert body["unreadable"] == 1

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, perturb_template(finger, rotation=3.0, translation=(2.0, 1.0),
                                                jitter=1.0, rng=random.Random(99)))
    assert verify(probe_path, "ivan", live.url, small_params(),
                  MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(100))
    assert not probe_path.exists()  # a readable vault unlocked: a decision


def test_a_misfiled_vault_does_not_block_the_owners_accept(tmp_path, live):
    finger = synth_template(106, 40)
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, finger)
    own, _ = enroll(enroll_path, "alice", live.url, small_params(), random.Random(107))
    write_template(enroll_path, synth_template(108, 40))
    bobs, _ = enroll(enroll_path, "bob", live.url, small_params(), random.Random(109))
    vaults = tmp_path / "vaults"
    (vaults / "alice" / f"{bobs}.json").write_bytes((vaults / "bob" / f"{bobs}.json").read_bytes())

    resp = requests.get(f"{live.url}/vaults", params={"user_id": "alice"}, timeout=5)
    assert resp.status_code == 200
    assert [v["id"] for v in resp.json()["vaults"]] == [own]
    assert resp.json()["unreadable"] == 1

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, finger)
    assert verify(probe_path, "alice", live.url, small_params(),
                  MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(110))
    assert not probe_path.exists()  # alice's own vault unlocked: a decision


def test_a_vault_entry_that_cannot_be_read_does_not_block_a_decision(tmp_path, live):
    finger = synth_template(111, 40)
    enroll_path = tmp_path / "enroll.xyt"
    write_template(enroll_path, finger)
    own, _ = enroll(enroll_path, "alice", live.url, small_params(), random.Random(112))
    (tmp_path / "vaults" / "alice" / "zzzz.json").mkdir()  # read_bytes raises IsADirectoryError

    resp = requests.get(f"{live.url}/vaults", params={"user_id": "alice"}, timeout=5)
    assert resp.status_code == 200
    assert [v["id"] for v in resp.json()["vaults"]] == [own]
    assert resp.json()["unreadable"] == 1

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, finger)
    assert verify(probe_path, "alice", live.url, small_params(),
                  MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(113))
    assert not probe_path.exists()  # alice's own vault unlocked: a decision

    write_template(probe_path, synth_template(114, 40))
    with pytest.raises(StorageUnavailable, match="1 are unreadable"):
        verify(probe_path, "alice", live.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(115))
    assert probe_path.exists()  # the unreadable entry might have matched


def test_impostor_with_a_corrupt_vault_gets_no_decision(tmp_path, live):
    enroll_good_and_corrupt(tmp_path, live, "jana", synth_template(101, 40))

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(102, 40))
    with pytest.raises(StorageUnavailable, match="1 are unreadable"):
        verify(probe_path, "jana", live.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(103))
    assert probe_path.exists()  # the unreadable vault might have matched


def test_all_vaults_corrupt_is_503_and_keeps_probe(tmp_path, live):
    finger = synth_template(104, 40)
    good, _ = enroll_good_and_corrupt(tmp_path, live, "kofi", finger)
    (tmp_path / "vaults" / "kofi" / f"{good}.json").write_text(_CORRUPT_FILES[1])

    resp = requests.get(f"{live.url}/vaults", params={"user_id": "kofi"}, timeout=5)
    assert resp.status_code == 503
    assert set(resp.json()) == {"error"}

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, finger)
    with pytest.raises(StorageUnavailable):
        verify(probe_path, "kofi", live.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(105))
    assert probe_path.exists()


def test_client_keeps_files_when_store_unreachable(tmp_path):
    dead = "http://127.0.0.1:9"  # discard port, nothing listens
    params = small_params()
    template_path = tmp_path / "enroll.xyt"
    write_template(template_path, synth_template(82, 40))
    with pytest.raises(StorageUnavailable):
        enroll(template_path, "erin", dead, params, random.Random(83))
    assert template_path.exists()  # retriable: the template survives

    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(84, 40))
    with pytest.raises(StorageUnavailable):
        verify(probe_path, "erin", dead, params,
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(85))
    assert probe_path.exists()  # no decision was reached


def _assert_no_decision(tmp_path, url):
    """enroll and verify against url raise StorageUnavailable and keep their files."""
    template_path = tmp_path / "enroll.xyt"
    write_template(template_path, synth_template(110, 40))
    with pytest.raises(StorageUnavailable):
        enroll(template_path, "nina", url, small_params(), random.Random(111))
    assert template_path.exists()
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(112, 40))
    with pytest.raises(StorageUnavailable):
        verify(probe_path, "nina", url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(113))
    assert probe_path.exists()


@pytest.mark.parametrize("url", ["http://127.0.0.1:99999", "http://127.0.0.1:http",
                                 "ftp://127.0.0.1:9", "http:///vaults", "127.0.0.1:9",
                                 "http://[::1"])
def test_client_keeps_files_on_a_bad_store_url(tmp_path, url):
    _assert_no_decision(tmp_path, url)


def test_client_speaks_tls_to_an_https_url(tmp_path, live):
    # the handshake fails against the plain-HTTP store: no decision, files kept
    _assert_no_decision(tmp_path, live.url.replace("http://", "https://"))


@pytest.fixture
def listener():
    """A TCP socket that listens on 127.0.0.1 but is not an HTTP server."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock


def test_client_keeps_files_when_the_store_hangs_up(tmp_path, listener):
    def hang_up():
        for _ in range(2):  # one enroll, one verify
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)

    thread = threading.Thread(target=hang_up, daemon=True)
    thread.start()
    _assert_no_decision(tmp_path, f"http://127.0.0.1:{listener.getsockname()[1]}")
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_client_keeps_files_when_the_store_never_answers(tmp_path, listener, monkeypatch):
    # the kernel completes the handshake; nothing ever reads or replies
    monkeypatch.setattr(client_module, "_TIMEOUT", 0.2)
    t0 = time.perf_counter()
    _assert_no_decision(tmp_path, f"http://127.0.0.1:{listener.getsockname()[1]}")
    assert time.perf_counter() - t0 < 3


def test_client_dials_the_store_directly(tmp_path, live, monkeypatch):
    # a proxy variable pointing at nothing must not matter
    for scheme in ("http", "https", "all"):
        for name in (f"{scheme}_proxy", f"{scheme.upper()}_PROXY"):
            monkeypatch.setenv(name, "http://127.0.0.1:9")
    monkeypatch.delenv("no_proxy", raising=False)
    monkeypatch.delenv("NO_PROXY", raising=False)
    template_path = tmp_path / "enroll.xyt"
    write_template(template_path, synth_template(114, 40))
    object_id, _ = enroll(template_path, "omar", live.url, small_params(), random.Random(115))
    assert not template_path.exists()
    assert [d["id"] for d in live.store.fetch("omar")] == [object_id]


class _CannedReply(BaseHTTPRequestHandler):
    """Answers every request with the server's canned (status, body)."""

    def log_message(self, fmt, *args):
        pass

    def _answer(self):
        body = self.rfile.read(int(self.headers.get("Content-Length") or 0))
        self.server.seen.append((self.command, self.path, self.headers.get("Content-Type"), body))
        status, body = self.server.reply
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer


@pytest.fixture
def canned():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedReply)
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    server.seen = []  # (method, path, Content-Type, body) of each request
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("status,body,error", [
    (200, b"[]", StorageUnavailable),
    # a reply without "vaults" is no answer, not "no vaults enrolled"
    (200, b"{}", StorageUnavailable),
    (200, b'{"unreadable": 0}', StorageUnavailable),
    (200, b'{"vaults": 5}', StorageUnavailable),
    (200, b"{ not json", StorageUnavailable),
    # a schema-breaking document is the store's fault, not the client's
    pytest.param(200, json.dumps({"vaults": [{**_STORED, "n": 0}]}).encode(), StorageUnavailable,
                 id="bad-schema"),
    # a well-formed vault of alice's is not lena's to decode
    pytest.param(200, json.dumps({"vaults": [_STORED]}).encode(), StorageUnavailable,
                 id="other-user"),
    pytest.param(200, b"[" * 100_000, StorageUnavailable, id="deep"),
    (400, b"[]", DocumentInvalid),
])
def test_client_malformed_vault_reply_keeps_probe(tmp_path, canned, status, body, error):
    canned.reply = (status, body)
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, synth_template(106, 40))
    with pytest.raises(error):
        verify(probe_path, "lena", canned.url, small_params(),
               MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(107))
    assert probe_path.exists()  # no decision was reached


@pytest.mark.parametrize("body", [b"{}", b"[]", b'{"object_id": 7}', b'{"object_id": ""}'])
def test_client_unacknowledged_enroll_keeps_template(tmp_path, canned, body):
    canned.reply = (201, body)
    template_path = tmp_path / "enroll.xyt"
    write_template(template_path, synth_template(108, 40))
    with pytest.raises(StorageUnavailable, match="not acknowledged|not a JSON object"):
        enroll(template_path, "mona", canned.url, small_params(), random.Random(109))
    assert template_path.exists()  # retriable: the template survives


def test_client_wire_requests(tmp_path, canned):
    # POST carries exactly json.dumps of the wire document; GET only the query
    params = small_params()
    template_path, copy_path = tmp_path / "enroll.xyt", tmp_path / "copy.xyt"
    for path in (template_path, copy_path):
        write_template(path, synth_template(116, 40))
    canned.reply = (201, b'{"object_id": "v9"}')
    assert enroll(template_path, "pia", canned.url + "/", params, random.Random(117))[0] == "v9"
    vault, _ = encode_vault(read_template(copy_path, params.width, params.height), params,
                            random.Random(117))
    body = json.dumps(document_from_vault(vault, "pia")).encode()
    assert body == (
        b'{"user_id": "pia", "n": 2, "points": [[570797172, 4151418803], [401010756, 3020153057], '
        b'[468070033, 1824626657], [768110538, 1779990708], [452989333, 2826823258], '
        b'[702578819, 686495134], [354784723, 29910731], [436395990, 1473415151]]}'
    )

    canned.reply = (200, b'{"vaults": []}')
    with pytest.raises(UnknownUser):
        verify(copy_path, "pia", canned.url, params, MatchParams(12, 12, 12, 15), ITERATIVE,
               random.Random(118))
    assert canned.seen == [("POST", "/vaults", "application/json", body),
                           ("GET", "/vaults?user_id=pia", None, b"")]


def test_client_multiple_vaults_disjunction(tmp_path, live):
    params = small_params()
    finger_a = synth_template(86, 40)
    finger_b = synth_template(87, 40)
    for i, t in enumerate((finger_a, finger_b)):
        p = tmp_path / f"enroll{i}.xyt"
        write_template(p, t)
        enroll(p, "fred", live.url, params, random.Random(88 + i))

    # a capture of either finger must unlock the shared id
    probe_path = tmp_path / "probe.xyt"
    write_template(probe_path, perturb_template(finger_b, rotation=2.0, jitter=1.0,
                                                rng=random.Random(90)))
    assert verify(probe_path, "fred", live.url, params,
                  MatchParams(12, 12, 12, 15), ITERATIVE, random.Random(91))