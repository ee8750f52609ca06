"""File and container-image movement: copies, symlinks, registry export, caching.

Protocol handlers cover ``file://`` and ``http://`` reads and ``file://``
writes.  Registry images are exported to image files through a local fixture
registry (a directory of ``<locator>__<tag>`` files); repeated exports of the
same image hit the image cache and never touch the registry again.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import ImageRef, ImageScheme
from .errors import (
    ChecksumMismatch,
    DestinationUnwritable,
    RegistryMiss,
    SchemeNotExportable,
    SourceMissing,
    TransferError,
)


@dataclass(frozen=True)
class TransferRequest:
    src: str
    dst: str
    bytes: int = 0
    link_ok: bool = False


@dataclass
class TransferResult:
    src: str
    dst: str
    ok: bool
    bytes_moved: int = 0
    mode: str = ""  # copy | link
    error: Exception | None = None


def _checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parse_file_url(url: str) -> Path:
    if not url.startswith("file://"):
        raise TransferError(f"not a file URL: {url!r}")
    return Path("/" + url[len("file://"):].lstrip("/"))


def _same_filesystem(a: Path, b: Path) -> bool:
    try:
        return a.stat().st_dev == b.parent.stat().st_dev
    except OSError:
        return False


def transfer(req: TransferRequest) -> TransferResult:
    """Move one file; symlink instead of copying when allowed and possible."""
    dst_path = _parse_file_url(req.dst)
    try:
        dst_path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return TransferResult(req.src, req.dst, False,
                              error=DestinationUnwritable(str(exc)))

    if req.src.startswith("http://") or req.src.startswith("https://"):
        try:
            with urllib.request.urlopen(req.src) as resp, open(dst_path, "wb") as out:
                shutil.copyfileobj(resp, out)
        except OSError as exc:
            return TransferResult(req.src, req.dst, False,
                                  error=SourceMissing(f"{req.src}: {exc}"))
        return TransferResult(req.src, req.dst, True,
                              bytes_moved=dst_path.stat().st_size, mode="copy")

    src_path = _parse_file_url(req.src)
    if not src_path.exists():
        return TransferResult(req.src, req.dst, False,
                              error=SourceMissing(req.src))

    if req.link_ok and _same_filesystem(src_path, dst_path):
        if dst_path.exists() or dst_path.is_symlink():
            dst_path.unlink()
        dst_path.symlink_to(src_path)
        return TransferResult(req.src, req.dst, True, bytes_moved=0, mode="link")

    size = src_path.stat().st_size
    src_sum = _checksum(src_path)
    try:
        shutil.copyfile(src_path, dst_path)
    except OSError as exc:
        return TransferResult(req.src, req.dst, False,
                              error=DestinationUnwritable(str(exc)))
    if _checksum(dst_path) != src_sum:
        return TransferResult(req.src, req.dst, False,
                              error=ChecksumMismatch(req.dst))
    return TransferResult(req.src, req.dst, True, bytes_moved=size, mode="copy")


def batch_transfer(
    reqs: list[TransferRequest], parallelism: int = 1
) -> list[TransferResult]:
    """Run transfers with bounded parallelism; per-request errors are collected."""
    if parallelism < 1:
        raise TransferError("parallelism must be >= 1")
    if not reqs:
        return []
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(transfer, reqs))


# --- registry + image cache ------------------------------------------------

class RegistryClient:
    """Desk-scale container registry backed by a fixture directory.

    Image files live at ``<root>/<locator>__<tag>``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.reads = 0

    def _path_for(self, ref: ImageRef) -> Path:
        return self.root / f"{ref.locator}__{ref.tag or 'latest'}"

    def fetch(self, ref: ImageRef) -> bytes:
        path = self._path_for(ref)
        if not path.exists():
            raise RegistryMiss(f"no image {ref.url()!r} in registry at {self.root}")
        self.reads += 1
        return path.read_bytes()

    def publish(self, ref: ImageRef, data: bytes) -> None:
        path = self._path_for(ref)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


@dataclass
class CacheEntry:
    path: str
    checksum: str
    size: int


@dataclass
class ImageCache:
    """Exported-image cache: at most one immutable entry per (image, location)."""

    root: Path
    entries: dict[tuple[str, str], CacheEntry] = field(default_factory=dict)

    def __post_init__(self):
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def get(self, ref: ImageRef, location: str) -> CacheEntry | None:
        return self.entries.get((ref.url(), location))

    def put(self, ref: ImageRef, location: str, data: bytes) -> CacheEntry:
        key = (ref.url(), location)
        if key in self.entries:
            return self.entries[key]
        name = ref.url().split("://", 1)[-1].strip("/").replace("/", "_")
        final = self.root / location / name
        final.parent.mkdir(parents=True, exist_ok=True)
        # atomic publish: write to temp in the same dir, then rename
        fd, tmp = tempfile.mkstemp(dir=final.parent, prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, final)
        entry = CacheEntry(
            path=str(final),
            checksum=hashlib.sha256(data).hexdigest(),
            size=len(data),
        )
        self.entries[key] = entry
        return entry


@dataclass
class ImageFileRecord:
    path: str
    size: int
    checksum: str
    from_cache: bool


def export_image(
    ref: ImageRef,
    dest: str | Path,
    registry: RegistryClient,
    cache: ImageCache | None = None,
    location: str = "default",
) -> ImageFileRecord:
    """Export a registry image to an image file at dest, via the cache."""
    if ref.scheme not in (ImageScheme.DOCKER, ImageScheme.SHUB):
        raise SchemeNotExportable(
            f"images with scheme {ref.scheme.value!r} cannot be exported to a file"
        )
    dest = Path(dest)
    dest.parent.mkdir(parents=True, exist_ok=True)

    if cache is not None:
        hit = cache.get(ref, location)
        if hit is not None:
            shutil.copyfile(hit.path, dest)
            return ImageFileRecord(str(dest), hit.size, hit.checksum, from_cache=True)

    data = registry.fetch(ref)
    if cache is not None:
        entry = cache.put(ref, location, data)
        shutil.copyfile(entry.path, dest)
        return ImageFileRecord(str(dest), entry.size, entry.checksum, from_cache=False)
    dest.write_bytes(data)
    return ImageFileRecord(
        str(dest), len(data), hashlib.sha256(data).hexdigest(), from_cache=False
    )
