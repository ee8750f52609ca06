"""Transformation/container catalog: parsing, validation and lookup.

The on-disk format is a YAML document with two sequences, ``transformations``
and ``cont``.  Each transformation maps a logical id (``namespace::name:version``)
to per-site executables; a site entry may point at a named container.  Each
``cont`` entry describes one container: image URL, runtime type, extra mounts
and env profiles.  ``image_size_bytes`` and ``site_local`` are extensions used
by the simulator and the staging-bypass policy; both default to 0 / false.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .errors import NotFound, ValidationError
from .workflow import dump_yaml, load_yaml, read_record, read_value

MOUNT_OPTIONS = {"ro", "rw"}


class ContainerRuntime(enum.Enum):
    DOCKER = "docker"
    SINGULARITY = "singularity"
    SHIFTER = "shifter"


class InstallType(enum.Enum):
    INSTALLED = "INSTALLED"
    STAGEABLE = "STAGEABLE"

    @classmethod
    def _missing_(cls, value):
        # catalogs may spell the type in any case
        return cls.__members__.get(value.upper()) if isinstance(value, str) else None


class ImageScheme(enum.Enum):
    DOCKER = "docker"
    SHUB = "shub"
    SHIFTER = "shifter"
    FILE = "file"
    HTTP = "http"


@dataclass(frozen=True)
class ImageRef:
    scheme: ImageScheme
    locator: str
    tag: str | None = None

    def url(self) -> str:
        tail = f":{self.tag}" if self.tag else ""
        if self.scheme in (ImageScheme.DOCKER, ImageScheme.SHIFTER):
            return f"{self.scheme.value}:///{self.locator}{tail}"
        if self.scheme is ImageScheme.FILE:
            return f"file://{self.locator}{tail}"
        return f"{self.scheme.value}://{self.locator}{tail}"


@dataclass(frozen=True)
class MountSpec:
    src: str
    dst: str
    options: tuple[str, ...] = ()

    def render(self) -> str:
        opts = f":{','.join(self.options)}" if self.options else ""
        return f"{self.src}:{self.dst}{opts}"


@dataclass(frozen=True)
class ContainerDef:
    name: str
    image: ImageRef
    runtime: ContainerRuntime
    mounts: tuple[MountSpec, ...] = ()
    profiles: dict[str, str] = field(default_factory=dict)
    image_size_bytes: int = 0
    site_local: bool = False


@dataclass(frozen=True)
class TransformationEntry:
    namespace: str
    name: str
    version: str
    site: str = field(metadata={"key": "name"})
    arch: str = ""
    os: str = ""
    pfn: str = ""
    install_type: InstallType = field(default=InstallType.INSTALLED, metadata={"key": "type"})
    container: str | None = None

    @property
    def logical_id(self) -> str:
        return f"{self.namespace}::{self.name}:{self.version}"


@dataclass(frozen=True)
class Catalog:
    transformations: tuple[TransformationEntry, ...] = ()
    containers: dict[str, ContainerDef] = field(default_factory=dict)

    def container_for(self, entry: TransformationEntry) -> ContainerDef | None:
        if entry.container is None:
            return None
        return self.containers[entry.container]


def load_key(url: str) -> str:
    """The name of the Docker image at ``url`` in a node's load lock and marker."""
    return url.split("://", 1)[-1].strip("/").replace("/", "_")


def parse_image_url(url: str) -> ImageRef:
    """Decompose an image URL into scheme, locator and optional tag.

    A colon after the final path segment separates the tag; anything
    else stays in the locator.  Tags apply to registry schemes only.
    """
    if "://" not in url:
        raise ValidationError(f"no scheme in image URL: {url!r}")
    scheme_s, rest = url.split("://", 1)
    try:
        scheme = ImageScheme(scheme_s)
    except ValueError:
        raise ValidationError(f"unknown image URL scheme: {scheme_s!r}") from None

    tag: str | None = None
    if scheme is ImageScheme.FILE:
        locator = "/" + rest.lstrip("/")
        if locator == "/":
            raise ValidationError(f"empty path in {url!r}")
        return ImageRef(scheme, locator)
    if scheme is ImageScheme.HTTP:
        locator = rest
    else:
        locator = rest.lstrip("/")
        last = locator.rsplit("/", 1)[-1]
        if ":" in last:
            locator, tag = locator.rsplit(":", 1)
    if not locator:
        raise ValidationError(f"empty locator in image URL: {url!r}")
    return ImageRef(scheme, locator, tag)


def parse_mount_spec(s: str) -> MountSpec:
    """Parse ``src-dir:dest-dir[:options]`` into a MountSpec."""
    parts = s.split(":")
    if len(parts) < 2:
        raise ValidationError(f"need src and dst in mount spec: {s!r}")
    if len(parts) > 3:
        raise ValidationError(f"too many fields in mount spec: {s!r}")
    src, dst = parts[0], parts[1]
    if not src.startswith("/") or not dst.startswith("/"):
        raise ValidationError(f"mount paths must be absolute: {s!r}")
    options: tuple[str, ...] = ()
    if len(parts) == 3:
        options = tuple(tok for tok in parts[2].split(",") if tok)
        for tok in options:
            if tok not in MOUNT_OPTIONS:
                raise ValidationError(f"unknown mount option {tok!r} in {s!r}")
    return MountSpec(src, dst, options)


def _parse_profiles(raw: object, where: str) -> dict[str, str]:
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: profile must be a sequence")
    env: dict[str, str] = {}
    for item in raw:
        if not isinstance(item, dict):
            raise ValidationError(f"{where}: bad profile entry {item!r}")
        for key, values in item.items():
            if key != "env":
                raise ValidationError(
                    f"{where}: only env profiles are supported, got {key!r}"
                )
            env.update(read_value(dict[str, str], values, "catalog", "env"))
    return env


def _required(raw: dict, keys: tuple[str, ...], entry: str) -> list[str]:
    """The values of ``keys`` in catalog entry ``raw``, each a string."""
    for key in keys:
        if key not in raw:
            raise ValidationError(f"{entry} missing field {key!r}")
    return [read_value(str, raw[key], "catalog", key) for key in keys]


def _parse_container(raw: dict, seen: set[str]) -> ContainerDef:
    name, image_url, runtime_s = _required(raw, ("name", "image", "type"), "cont entry")
    if not name:
        raise ValidationError("cont entry: container name must not be empty")
    if name in seen:
        raise ValidationError(f"duplicate container name {name!r}")
    try:
        runtime = ContainerRuntime(runtime_s.lower())
    except ValueError:
        raise ValidationError(f"unknown container type {runtime_s!r}") from None
    image = parse_image_url(image_url)
    if runtime is ContainerRuntime.SHIFTER and image.scheme is not ImageScheme.SHIFTER:
        raise ValidationError(
            f"container {name!r}: shifter containers require a shifter image URL"
        )
    mount_specs = raw.get("mount") or []
    if not isinstance(mount_specs, list):
        raise ValidationError(f"container {name!r}: mount must be a sequence")
    cdef = read_record(
        ContainerDef, raw, "catalog", name=name, image=image, runtime=runtime,
        mounts=tuple(parse_mount_spec(str(m)) for m in mount_specs),
        profiles=_parse_profiles(raw.get("profile"), f"cont {name!r}"),
    )
    if cdef.image_size_bytes < 0:
        raise ValidationError(f"container {name!r}: negative image_size_bytes")
    return cdef


def _parse_transformation(raw: dict) -> list[TransformationEntry]:
    namespace, name, version = _required(
        raw, ("namespace", "name", "version"), "transformation")
    sites = raw.get("site") or []
    if not isinstance(sites, list):
        raise ValidationError(f"transformation {name!r}: site must be a sequence")
    entries = []
    for site_raw in sites:
        if not isinstance(site_raw, dict) or "name" not in site_raw:
            raise ValidationError(f"transformation {name!r}: bad site entry")
        if "profile" in site_raw:
            raise ValidationError(
                f"transformation {name!r}: env profiles go on the container, not the site")
        entries.append(read_record(
            TransformationEntry, site_raw, "catalog",
            namespace=namespace, name=name, version=version,
        ))
    return entries


def parse_catalog(text: str) -> Catalog:
    """Parse a catalog document into a validated Catalog.

    Accepts either a top-level mapping with ``transformations``/``cont`` keys
    or a sequence of single-key mappings carrying the same content.
    """
    doc = load_yaml(text, "catalog", (dict, list))
    if isinstance(doc, list):
        merged: dict = {}
        for item in doc:
            if not isinstance(item, dict):
                raise ValidationError(f"unexpected top-level entry {item!r}")
            merged.update(item)
        doc = merged
    conts = read_value(list[dict], doc.get("cont", []), "catalog", "cont")
    raw_transformations = read_value(
        list[dict], doc.get("transformations", []), "catalog", "transformations")

    containers: dict[str, ContainerDef] = {}
    loaded_as: dict[str, str] = {}  # Docker load key -> container
    for raw in conts:
        cdef = _parse_container(raw, set(containers))
        containers[cdef.name] = cdef
        if cdef.runtime is ContainerRuntime.DOCKER:
            key = load_key(cdef.image.url())
            if key in loaded_as:
                raise ValidationError(
                    f"containers {loaded_as[key]!r} and {cdef.name!r} load as one "
                    f"Docker image {key!r}")
            loaded_as[key] = cdef.name

    transformations: list[TransformationEntry] = []
    seen_keys: set[tuple[str, str, str, str]] = set()
    for raw in raw_transformations:
        for entry in _parse_transformation(raw):
            key = (entry.namespace, entry.name, entry.version, entry.site)
            if key in seen_keys:
                raise ValidationError(
                    f"duplicate transformation {entry.logical_id!r} at site {entry.site!r}"
                )
            seen_keys.add(key)
            if entry.container is not None and entry.container not in containers:
                raise ValidationError(
                    f"transformation {entry.logical_id!r} references unknown "
                    f"container {entry.container!r}"
                )
            transformations.append(entry)

    return Catalog(transformations=tuple(transformations), containers=containers)


def serialize_catalog(cat: Catalog) -> str:
    """Serialize a Catalog back to its YAML document form."""
    by_logical: dict[tuple[str, str, str], list[TransformationEntry]] = {}
    for entry in cat.transformations:
        by_logical.setdefault((entry.namespace, entry.name, entry.version), []).append(entry)
    transformations = []
    for (namespace, name, version), entries in by_logical.items():
        sites = []
        for e in entries:
            site: dict = {"name": e.site, "arch": e.arch, "os": e.os,
                          "pfn": e.pfn, "type": e.install_type.value}
            if e.container is not None:
                site["container"] = e.container
            sites.append(site)
        transformations.append({
            "namespace": namespace, "name": name, "version": version, "site": sites,
        })
    conts = []
    for cdef in cat.containers.values():
        raw: dict = {
            "name": cdef.name,
            "image": cdef.image.url(),
            "type": cdef.runtime.value,
        }
        if cdef.mounts:
            raw["mount"] = [m.render() for m in cdef.mounts]
        if cdef.profiles:
            raw["profile"] = [{"env": dict(cdef.profiles)}]
        if cdef.image_size_bytes:
            raw["image_size_bytes"] = cdef.image_size_bytes
        if cdef.site_local:
            raw["site_local"] = True
        conts.append(raw)
    return dump_yaml({"transformations": transformations, "cont": conts})


def parse_logical_id(logical_id: str) -> tuple[str, str, str]:
    """Split ``namespace::name:version`` into its parts."""
    if "::" not in logical_id:
        raise NotFound(f"bad logical transformation id {logical_id!r}")
    namespace, rest = logical_id.split("::", 1)
    if ":" not in rest:
        raise NotFound(f"bad logical transformation id {logical_id!r}")
    name, version = rest.rsplit(":", 1)
    return namespace, name, version


def resolve_transformation(
    cat: Catalog, logical_id: str, site: str
) -> tuple[TransformationEntry, ContainerDef | None]:
    """Look up the site-specific entry for a logical id and its container."""
    namespace, name, version = parse_logical_id(logical_id)
    for entry in cat.transformations:
        if (entry.namespace, entry.name, entry.version, entry.site) == \
                (namespace, name, version, site):
            return entry, cat.container_for(entry)
    raise NotFound(f"no transformation {logical_id!r} at site {site!r}")
