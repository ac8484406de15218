"""The three benchmark workloads: enroll, verify and attack.

Each workload is a closed loop from one client, one operation in flight.
Every operation belongs to one of two lanes, "a" and "b", and the lanes
are timed apart because their costs differ by up to 15x:

    workload  lane a                        lane b
    enroll    client.enroll at fvc-1 (n=8)  client.enroll at fvc-5 (n=12)
    verify    genuine probe                 impostor probe
    attack    try_unlock, fvc-1 vault, n=8  try_unlock, fvc-5 vault, n=12

Inputs come only from the seed.  Templates are made by synth_template and
perturb_template and reach the package only as .xyt files (written,
untimed, before each operation, because the client deletes them) and as
vault documents.  Each operation is timed around its public entry point
alone; its output is checked afterwards, untimed.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fuzzyvault import client, decoder, vault as vault_mod
from fuzzyvault.decoder import DEFAULT_STRATEGY, decode_vault
from fuzzyvault.evaluation import BUILTIN_CONFIGS, perturb_template, synth_template
from fuzzyvault.minutiae import Template, parse_template
from fuzzyvault.service import VaultStoreService
from fuzzyvault.store import (
    FileVaultStore,
    document_from_dict,
    validate_document_dict,
    vault_from_document,
)

MINUTIAE = 60  # per synthetic template
FVC1 = BUILTIN_CONFIGS["fvc-1"]
FVC5 = BUILTIN_CONFIGS["fvc-5"]

# A check failure that is a measured error rate, not a defect: a genuine
# probe the matcher fails to align.  It counts in failed_ops only.
FALSE_REJECT = "genuine false reject"


def rng_for(seed: int, *parts) -> random.Random:
    """Independent deterministic stream per (seed, purpose, index)."""
    return random.Random(":".join(map(str, (seed, *parts))))


def template_text(t: Template) -> str:
    return "".join(f"{m.x} {m.y} {m.theta!r} {m.quality}\n" for m in t.minutiae)


@dataclass
class Planned:
    """One operation: its lane, the timed call and the untimed check of its result."""

    lane: str
    call: Callable[[], object]
    check: Callable[[object], "Checked"]


@dataclass(frozen=True)
class Checked:
    failure: str | None  # None when the output is correct
    token: str  # what the operation decided, for the behaviour fingerprint
    stored_bytes: int = 0  # size of the vault file the operation wrote or read


@dataclass(frozen=True)
class Outcome:
    op: int
    lane: str
    seconds: float
    failure: str | None
    token: str
    stored_bytes: int


class Workload:
    name = ""
    lanes = {"a": "", "b": ""}  # lane -> name of its end-to-end metrics
    fingerprint_ops = 0  # operations the behaviour fingerprint covers
    uses_service = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tmp: Path | None = None
        self.store: FileVaultStore | None = None
        self.service: VaultStoreService | None = None

    # set-up -----------------------------------------------------------
    def setup(self) -> None:
        """Build every input and warm the code paths; timed as setup_s."""
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=self.workdir))
        (self.tmp / "templates").mkdir()
        if self.uses_service:
            self.store = FileVaultStore(self.tmp / "store")
            self.service = VaultStoreService(self.store).start()
        self.prepare_inputs()
        self.warm_up()

    def teardown(self) -> None:
        if self.service is not None:
            self.service.stop()
            self.service = None
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def prepare_inputs(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def check_setup(self) -> list[str]:
        """Untimed checks of what set-up built; a non-empty list aborts the run."""
        return []

    # operations -------------------------------------------------------
    def plan(self, i: int) -> Planned:
        raise NotImplementedError

    def fingerprint(self, outcomes: list[Outcome]) -> dict:
        head = outcomes[: self.fingerprint_ops]
        digest = hashlib.sha256(
            "".join(f"{o.op} {o.lane} {o.token}\n" for o in head).encode()
        ).hexdigest()
        return {"ops": len(head), "decisions": digest[:16]}

    # helpers ----------------------------------------------------------
    @property
    def url(self) -> str:
        return self.service.url

    def write_template(self, name: str, t: Template) -> tuple[Path, str]:
        path = self.tmp / "templates" / f"{name}.xyt"
        text = template_text(t)
        path.write_text(text)
        return path, text

    def stored_document(self, user_id: str, object_id: str) -> tuple[dict, int]:
        raw = (self.tmp / "store" / user_id / f"{object_id}.json").read_bytes()
        return json.loads(raw), len(raw)

    def check_enrolled(self, user_id, object_id, secret, cfg) -> tuple[str | None, str, int]:
        """Every stored file passes the schema and holds exactly g genuine points."""
        if not isinstance(object_id, str):
            return "enroll not acknowledged", "", 0
        data, size = self.stored_document(user_id, object_id)
        try:
            validate_document_dict(data, require_id=True)
        except ValueError as exc:
            return f"stored document invalid: {exc}", "", size
        vault = vault_from_document(document_from_dict(data), cfg.vault_params())
        found = len(vault_mod.genuine_indices(vault, secret))
        if found != cfg.genuine_count:
            return f"{found} genuine points, expected {cfg.genuine_count}", "", size
        points = hashlib.sha256(json.dumps(data["points"]).encode()).hexdigest()[:16]
        return None, f"{secret.hex()}:{points}", size


class EnrollWorkload(Workload):
    """Distinct fingers enrolled over HTTP, alternating fvc-1 and fvc-5."""

    name = "enroll"
    lanes = {"a": "enroll", "b": "enroll_n12"}
    fingerprint_ops = 8
    configs = {"a": FVC1, "b": FVC5}

    def warm_up(self) -> None:
        for lane, cfg in self.configs.items():
            t = synth_template(rng_for(self.seed, "warm", lane).getrandbits(64), MINUTIAE)
            path, _ = self.write_template(f"warm-{lane}", t)
            client.enroll(path, f"warm-{lane}", self.url, cfg.vault_params(), rng_for(self.seed, "warm-rng"))

    def plan(self, i: int) -> Planned:
        lane = "a" if i % 2 == 0 else "b"
        cfg = self.configs[lane]
        t = synth_template(rng_for(self.seed, "finger", i).getrandbits(64), MINUTIAE)
        path, _ = self.write_template(f"enroll-{i}", t)
        user = f"e{i:06d}"
        rng = rng_for(self.seed, "enroll-rng", i)
        url, params = self.url, cfg.vault_params()

        def check(result) -> Checked:
            object_id, secret = result
            if path.exists():
                return Checked("template file kept after enrollment", "")
            return Checked(*self.check_enrolled(user, object_id, secret, cfg))

        return Planned(lane, lambda: client.enroll(path, user, url, params, rng), check)


class VerifyWorkload(Workload):
    """Genuine and impostor probes over HTTP against users enrolled in set-up.

    Operation 2j probes vault j mod V with a fresh capture of its finger;
    operation 2j+1 probes vault (j + V/2) mod V with an unrelated finger.
    So each vault gets one probe of each kind per pass over the users,
    never back to back, and reuse stays at two probes per vault.
    """

    name = "verify"
    lanes = {"a": "verify_genuine", "b": "verify_impostor"}
    fingerprint_ops = 4  # two genuine and two impostor probes, replayed for counters

    def __init__(self, seed: int, workdir: Path, users: int = 40):
        super().__init__(seed, workdir)
        if users < 2 or users % 2:
            raise ValueError("users must be even and at least 2")
        self.users = users
        self.params = FVC1.vault_params()
        self.match = FVC1.match_params()
        self.bases: list[Template] = []
        self.enrolled: list[tuple[str, str, bytes]] = []  # (user, object id, secret)
        self.probe_texts: dict[int, str] = {}  # the fingerprinted probes, for the replay

    def prepare_inputs(self) -> None:
        self.bases, self.enrolled = [], []
        for u in range(self.users):
            t = synth_template(rng_for(self.seed, "finger", u).getrandbits(64), MINUTIAE)
            path, _ = self.write_template(f"user-{u}", t)
            user = f"v{u:04d}"
            object_id, secret = client.enroll(path, user, self.url, self.params, rng_for(self.seed, "enroll-rng", u))
            self.bases.append(t)
            self.enrolled.append((user, object_id, secret))

    def warm_up(self) -> None:
        path, _ = self.write_template("warm", self.genuine_probe(0, -1))
        client.verify(path, self.enrolled[0][0], self.url, self.params, self.match,
                      DEFAULT_STRATEGY, rng_for(self.seed, "warm-rng"))

    def check_setup(self) -> list[str]:
        problems = []
        for user, object_id, secret in self.enrolled:
            failure, _, _ = self.check_enrolled(user, object_id, secret, FVC1)
            if failure:
                problems.append(f"{user}: {failure}")
        return problems

    def genuine_probe(self, u: int, j: int) -> Template:
        # Criterion 06's capture model: +-8 deg, +-8 px, 3 px / 4 deg jitter, 10% drop.
        rng = rng_for(self.seed, "genuine", j)
        return perturb_template(
            self.bases[u],
            rotation=rng.uniform(-8, 8),
            translation=(rng.uniform(-8, 8), rng.uniform(-8, 8)),
            jitter=3.0,
            theta_jitter=4.0,
            drop_fraction=0.1,
            rng=rng,
        )

    def plan(self, i: int) -> Planned:
        j, impostor = divmod(i, 2)
        if impostor:
            u = (j + self.users // 2) % self.users
            probe = synth_template(rng_for(self.seed, "impostor", j).getrandbits(64), MINUTIAE)
        else:
            u = j % self.users
            probe = self.genuine_probe(u, j)
        path, text = self.write_template(f"probe-{i}", probe)
        if i < self.fingerprint_ops:
            self.probe_texts[i] = text
        user = self.enrolled[u][0]
        rng = rng_for(self.seed, "verify-rng", i)
        url = self.url

        def check(accepted) -> Checked:
            if path.exists():
                return Checked("probe file kept after a decision", "")
            token = "accept" if accepted else "reject"
            size = sum(p.stat().st_size for p in (self.tmp / "store" / user).glob("*.json"))
            if impostor and accepted:
                return Checked("impostor accepted", token, size)
            if not impostor and not accepted:
                return Checked(FALSE_REJECT, token, size)
            return Checked(None, token, size)

        return Planned(
            "b" if impostor else "a",
            lambda: client.verify(path, user, url, self.params, self.match, DEFAULT_STRATEGY, rng),
            check,
        )

    def fingerprint(self, outcomes: list[Outcome]) -> dict:
        """Decisions digest plus MatchResult counters from an untimed replay.

        The replay runs decode_vault on the same vault document, probe text
        and rng seed as the timed client.verify, so its decision must agree.
        """
        out = super().fingerprint(outcomes)
        sums = {"bases_tried": 0, "candidate_sets": 0, "interpolations": 0}
        for o in outcomes[: self.fingerprint_ops]:
            j, impostor = divmod(o.op, 2)
            u = (j + self.users // 2) % self.users if impostor else j % self.users
            (doc,) = self.store.fetch(self.enrolled[u][0])
            probe = parse_template(self.probe_texts[o.op], self.params.width, self.params.height)
            r = decode_vault(vault_from_document(doc, self.params), probe, self.match,
                             DEFAULT_STRATEGY, rng_for(self.seed, "verify-rng", o.op))
            if ("accept" if r.matched else "reject") != o.token:
                out["replay_mismatch"] = o.op
            sums["bases_tried"] += r.bases_tried
            sums["candidate_sets"] += r.candidate_sets_evaluated
            sums["interpolations"] += r.interpolations_performed
        return {**out, **sums}


@dataclass(frozen=True)
class AttackTarget:
    degree: int
    subsets: tuple  # pre-drawn (n+1)-subsets of the vault's points
    expected: tuple  # per subset: the secret if all its points are genuine, else None


class AttackWorkload(Workload):
    """The brute-force attacker: try_unlock on (n+1)-subsets drawn in set-up.

    Lanes alternate in blocks of BLOCK attempts so both see the same
    machine conditions.  One subset in PLANT_EVERY is drawn from the
    genuine points only, so the accept path runs and is checked too.
    """

    name = "attack"
    lanes = {"a": "attack_n8", "b": "attack_n12"}
    fingerprint_ops = 256
    uses_service = False
    configs = {"a": FVC1, "b": FVC5}
    BLOCK = 32
    PLANT_EVERY = 64

    def __init__(self, seed: int, workdir: Path, pool: int = 4096):
        super().__init__(seed, workdir)
        self.pool = pool
        self.targets: dict[str, AttackTarget] = {}

    def prepare_inputs(self) -> None:
        for lane, cfg in self.configs.items():
            rng = rng_for(self.seed, "attack", lane)
            t = synth_template(rng.getrandbits(64), MINUTIAE)
            vault, secret = vault_mod.encode_vault(t, cfg.vault_params(), rng)
            genuine = set(vault_mod.genuine_indices(vault, secret))
            size = cfg.degree + 1
            subsets, expected = [], []
            for k in range(self.pool):
                source = sorted(genuine) if k % self.PLANT_EVERY == self.PLANT_EVERY - 1 else range(len(vault.points))
                idx = rng.sample(source, size)
                subsets.append(tuple(vault.points[x] for x in idx))
                expected.append(secret if genuine.issuperset(idx) else None)
            self.targets[lane] = AttackTarget(cfg.degree, tuple(subsets), tuple(expected))

    def warm_up(self) -> None:
        for target in self.targets.values():
            for k in range(16):
                decoder.try_unlock(target.subsets[k], target.degree)

    def check_setup(self) -> list[str]:
        problems = []
        for lane, target in self.targets.items():
            planted = sum(e is not None for e in target.expected)
            if planted < self.pool // self.PLANT_EVERY:
                problems.append(f"lane {lane}: only {planted} all-genuine subsets")
        return problems

    def plan(self, i: int) -> Planned:
        block, offset = divmod(i, self.BLOCK)
        lane = "a" if block % 2 == 0 else "b"
        k = ((block // 2) * self.BLOCK + offset) % self.pool
        target = self.targets[lane]
        subset, want = target.subsets[k], target.expected[k]

        def check(got) -> Checked:
            token = f"{k}:{'-' if got is None else got.hex()}"
            if got == want:
                return Checked(None, token)
            return Checked("planted subset did not unlock" if want else "random subset unlocked", token)

        return Planned(lane, lambda: decoder.try_unlock(subset, target.degree), check)

    def fingerprint(self, outcomes: list[Outcome]) -> dict:
        out = super().fingerprint(outcomes)
        out["accepts"] = sum(not o.token.endswith(":-") for o in outcomes[: self.fingerprint_ops])
        return out


WORKLOADS = {w.name: w for w in (EnrollWorkload, VerifyWorkload, AttackWorkload)}
