"""Compression-job state — the reference scheduler's SQL job/task tables
(job-orchestration/job_orchestration/scheduler/compress/
compression_scheduler.py:149,355-396: jobs move through
PENDING → RUNNING → SUCCEEDED/FAILED in a database that several scheduler
processes share; search_and_schedule_new_tasks claims new work each poll).

Rebuilt without a database, on the repo's lock-free filesystem discipline
(state/catalog.py): ``<out_dir>/_jobs/`` holds one JSON file per fragment
job. The state machine:

- absent                → unclaimed (a poller may claim it)
- running, lease fresh  → owned by a live poller; other pollers skip it
- running, lease expired→ owner presumed dead; next poller takes over
                          (attempt + 1)
- failed, attempt < max → retryable; next poller takes over (attempt + 1)
- failed, attempt ≥ max → parked; excluded from discovery until an operator
                          clears the job file
- done                  → kept for observability; the fragment MANIFEST
                          (state/manifest.py) stays the authoritative
                          completion record, exactly as in run_fragments

Atomicity: a CLAIM is ``os.open(O_CREAT|O_EXCL)`` — the filesystem picks
exactly one winner among concurrent pollers. A job's member files are
claimed the same way, one ``_jobs/files/`` entry per input path naming
its fragment (:func:`claim_files`): pollers that saw different file sets
pack a shared file into different groups with different fragment ids,
and only the file claim keeps them from both compressing it. Together
they are the "two pollers never double-compress an input" guarantee on
the common path. A TAKEOVER
(lease expiry / retry) is ``os.replace``; two pollers racing a takeover can
both believe they own the job — accepted, because fragments are idempotent
(content-hash-atomic sink files + atomic manifest replace make a duplicate
run converge to the same bytes), so the race costs duplicate work at most,
never duplicate data, and only after a crash. State files are written
tmp → ``os.replace`` like every sink in the repo.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

from clp_core_ray.state.atomic import inprogress_path

JOBS_DIR = "_jobs"

#: Lease on a running claim; an owner that hasn't finished within this is
#: presumed dead. Generous by design: expiry costs only duplicate work.
DEFAULT_LEASE_S = 600.0
DEFAULT_MAX_ATTEMPTS = 3


def jobs_dir(out_dir: str) -> str:
    d = os.path.join(out_dir, JOBS_DIR)
    os.makedirs(d, exist_ok=True)
    return d


def _path(out_dir: str, frag: str) -> str:
    return os.path.join(jobs_dir(out_dir), f"{frag}.json")


def read_jobs(out_dir: str) -> dict[str, dict]:
    """frag id → job record. A record that fails to parse (a reader racing
    the claim write) is reported as a fresh running claim — conservative:
    nobody steals work they can't prove abandoned."""
    out: dict[str, dict] = {}
    d = jobs_dir(out_dir)
    for name in sorted(os.listdir(d)):
        if not name.endswith(".json"):
            continue
        frag = name[:-5]
        try:
            with open(os.path.join(d, name)) as f:
                out[frag] = json.load(f)
        except (json.JSONDecodeError, OSError):
            out[frag] = {"state": "running", "t": time.time(),
                         "files": [], "attempt": 1, "owner": "?"}
    return out


def _write(out_dir: str, frag: str, rec: dict) -> None:
    path = _path(out_dir, frag)
    tmp = inprogress_path(path)
    with open(tmp, "w") as f:
        json.dump(rec, f)
    os.replace(tmp, path)


def try_claim(out_dir: str, frag: str, files: list[str], owner: str,
              attempt: int = 1) -> bool:
    """Atomically claim an UNCLAIMED job. One winner among concurrent
    pollers (O_CREAT|O_EXCL); losers get False and move on."""
    rec = {"state": "running", "owner": owner, "attempt": attempt,
           "t": time.time(), "files": files}
    try:
        fd = os.open(_path(out_dir, frag),
                     os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as f:
        json.dump(rec, f)
    return True


def takeover(out_dir: str, frag: str, files: list[str], owner: str,
             attempt: int) -> None:
    """Replace an expired/failed claim (last-wins; see module docstring
    for why the takeover race is benign)."""
    _write(out_dir, frag, {"state": "running", "owner": owner,
                           "attempt": attempt, "t": time.time(),
                           "files": files})


def _file_claim_path(out_dir: str, path: str) -> str:
    d = os.path.join(jobs_dir(out_dir), "files")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, hashlib.sha1(path.encode()).hexdigest()[:24])


def _file_owner(claim: str) -> str | None:
    try:
        with open(claim) as f:
            return f.read()
    except FileNotFoundError:
        return None


def claim_files(out_dir: str, frag: str, files: list[str]) -> bool:
    """Claim every member file of ``frag`` (O_CREAT|O_EXCL, in sorted
    order, so two overlapping groups meet at their first shared file).
    A file already claimed for ``frag`` (an earlier attempt's) counts as
    held. A file claimed for another fragment loses the whole group: the
    claims this call made are released and False is returned. Call it
    while holding ``frag``'s job claim."""
    made = []
    for f in sorted(files):
        claim = _file_claim_path(out_dir, f)
        try:
            fd = os.open(claim, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            if _file_owner(claim) == frag:
                continue
            for c in made:
                os.unlink(c)
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(frag)
        made.append(claim)
    return True


def mark_done(out_dir: str, frag: str, owner: str, *,
              rows: int, wall_sec: float, attempt: int = 1,
              files: list[str] = ()) -> None:
    _write(out_dir, frag, {"state": "done", "owner": owner,
                           "attempt": attempt, "t": time.time(),
                           "rows": rows, "wall_sec": round(wall_sec, 3),
                           "files": list(files)})


def mark_failed(out_dir: str, frag: str, files: list[str], owner: str,
                attempt: int, error: str) -> None:
    _write(out_dir, frag, {"state": "failed", "owner": owner,
                           "attempt": attempt, "t": time.time(),
                           "files": files, "error": error[:2000]})


def clear_job(out_dir: str, frag: str) -> bool:
    """Forget a job record and the file claims that name its fragment:
    the operator's unpark of a permanently-failed job (the next poll
    retries its files from attempt 1, in whatever group they then fall
    into), a done record's pruning, or a claim given up."""
    path = _path(out_dir, frag)
    try:
        with open(path) as f:
            files = json.load(f).get("files") or []
    except FileNotFoundError:
        return False
    except json.JSONDecodeError:
        files = []
    for p in files:
        claim = _file_claim_path(out_dir, p)
        if _file_owner(claim) == frag:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(claim)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    return True
