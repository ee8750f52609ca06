"""Catalog parsing, image URLs, mount specs, resolution."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from contflow.catalog import (
    Catalog,
    ContainerDef,
    ContainerRuntime,
    ImageScheme,
    InstallType,
    MountSpec,
    TransformationEntry,
    parse_catalog,
    parse_image_url,
    parse_mount_spec,
    resolve_transformation,
    serialize_catalog,
)
from contflow.errors import NotFound, ValidationError
from contflow.scenarios import demo_catalog


class TestParseImageUrl:
    def test_docker_hub_url(self):
        ref = parse_image_url("docker:///rynge/montage:latest")
        assert ref.scheme is ImageScheme.DOCKER
        assert ref.locator == "rynge/montage"
        assert ref.tag == "latest"

    def test_singularity_hub_url(self):
        ref = parse_image_url("shub://singularity-hub.org/pegasus-isi/fedora-montage")
        assert ref.scheme is ImageScheme.SHUB
        assert ref.locator == "singularity-hub.org/pegasus-isi/fedora-montage"
        assert ref.tag is None

    def test_shifter_url(self):
        ref = parse_image_url("shifter:///papajim/namd_image:latest")
        assert ref.scheme is ImageScheme.SHIFTER
        assert ref.locator == "papajim/namd_image"
        assert ref.tag == "latest"

    def test_file_url_keeps_absolute_path(self):
        ref = parse_image_url("file:///images/tool.sif")
        assert ref.scheme is ImageScheme.FILE
        assert ref.locator == "/images/tool.sif"

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError, match="^unknown image URL scheme: 'ftp'$"):
            parse_image_url("ftp://host/image")

    def test_missing_scheme(self):
        with pytest.raises(ValidationError, match="^no scheme in image URL: 'just/a/path'$"):
            parse_image_url("just/a/path")

    def test_empty_locator(self):
        with pytest.raises(ValidationError,
                           match="^empty locator in image URL: 'docker:///'$"):
            parse_image_url("docker:///")

    def test_empty_file_path(self):
        with pytest.raises(ValidationError, match="^empty path in 'file:///'$"):
            parse_image_url("file:///")

    def test_colon_before_last_segment_is_not_a_tag(self):
        ref = parse_image_url("docker:///reg:5000/repo/tool")
        assert ref.locator == "reg:5000/repo/tool"
        assert ref.tag is None

    def test_url_round_trip(self):
        for url in (
            "docker:///rynge/montage:latest",
            "shub://singularity-hub.org/pegasus-isi/fedora-montage",
            "shifter:///papajim/namd_image:latest",
            "http://example.org:8080/images/tool.tar:1",
        ):
            assert parse_image_url(url).url() == url


class TestParseMountSpec:
    def test_with_options(self):
        m = parse_mount_spec("/Volumes/Work/lfs1:/shared-data/:ro")
        assert m == MountSpec("/Volumes/Work/lfs1", "/shared-data/", ("ro",))

    def test_without_options(self):
        assert parse_mount_spec("/a:/b") == MountSpec("/a", "/b", ())

    def test_missing_dst(self):
        with pytest.raises(ValidationError, match="^need src and dst in mount spec: '/a'$"):
            parse_mount_spec("/a")

    def test_relative_path_rejected(self):
        with pytest.raises(ValidationError, match="^mount paths must be absolute: 'a:/b'$"):
            parse_mount_spec("a:/b")

    def test_too_many_fields(self):
        with pytest.raises(ValidationError, match="^too many fields in mount spec: '/a:/b:ro:x'$"):
            parse_mount_spec("/a:/b:ro:x")

    def test_unknown_option(self):
        with pytest.raises(ValidationError,
                           match="^unknown mount option 'zz' in '/a:/b:zz'$"):
            parse_mount_spec("/a:/b:zz")

    def test_render_round_trip(self):
        for s in ("/a:/b", "/a:/b:ro", "/x/y:/z:rw"):
            assert parse_mount_spec(s).render() == s


class TestParseCatalog:
    def test_published_listing(self, listing_text):
        cat = parse_catalog(listing_text)
        assert len(cat.transformations) == 1
        entry = cat.transformations[0]
        assert entry.logical_id == "example::keg:1.0"
        assert entry.site == "isi"
        assert entry.arch == "x86"
        assert entry.os == "linux"
        assert entry.pfn == "/shared/pegasus/bin/pegasus-keg"
        assert entry.install_type is InstallType.INSTALLED
        assert entry.container == "centos-pegasus"

        cdef = cat.containers["centos-pegasus"]
        assert cdef.runtime is ContainerRuntime.DOCKER
        assert cdef.image.scheme is ImageScheme.DOCKER
        assert cdef.image.locator == "rynge/montage"
        assert cdef.image.tag == "latest"
        assert cdef.mounts == (MountSpec("/Volumes/Work/lfs1", "/shared-data/", ("ro",)),)
        assert cdef.profiles == {"JAVA_HOME": "/bin/java.1.6"}

    def test_empty_document(self):
        cat = parse_catalog("transformations: []\ncont: []\n")
        assert cat == Catalog()

    def test_shared_container_resolved_three_times(self):
        text = """
transformations:
  - {namespace: ns, name: a, version: "1", site: [{name: s1, container: c1}]}
  - {namespace: ns, name: b, version: "1", site: [{name: s1, container: c1}]}
  - {namespace: ns, name: c, version: "1", site: [{name: s1, container: c1}]}
cont:
  - {name: c1, image: "docker:///x/y:1", type: docker}
"""
        cat = parse_catalog(text)
        # oracle: brute-force scan of entries referencing c1
        refs = [e for e in cat.transformations if e.container == "c1"]
        assert len(refs) == 3
        resolved = {id(cat.container_for(e)) for e in refs}
        assert len(resolved) == 1  # one shared definition

    def test_dangling_container_ref(self):
        text = """
transformations:
  - {namespace: ns, name: a, version: "1", site: [{name: s1, container: nope}]}
"""
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == "transformation 'ns::a:1' references unknown container 'nope'"

    def test_duplicate_container_name(self):
        text = """
cont:
  - {name: c1, image: "docker:///x/y:1", type: docker}
  - {name: c1, image: "docker:///x/z:1", type: docker}
"""
        with pytest.raises(ValidationError, match="^duplicate container name 'c1'$"):
            parse_catalog(text)

    @pytest.mark.parametrize("first, second, key", [
        ("docker:///x/y:1", "docker:///x/y:1", "x_y:1"),
        ("docker:///x/y:1", "docker://x/y:1", "x_y:1"),
        ("docker:///a/b_c:1", "docker:///a_b/c:1", "a_b_c:1"),
    ], ids=["same-url", "same-url-spelled-apart", "same-load-key"])
    def test_docker_containers_with_one_load_key(self, first, second, key):
        text = f"""
cont:
  - {{name: c1, image: "{first}", type: docker}}
  - {{name: c2, image: "{second}", type: docker}}
"""
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == f"containers 'c1' and 'c2' load as one Docker image '{key}'"

    @pytest.mark.parametrize("first, second", [
        ("image: 'docker:///x/y:1', type: docker", "image: 'shifter:///x/y:1', type: shifter"),
        ("image: 'shub://hub/x/y', type: singularity",
         "image: 'shub://hub/x/y', type: singularity"),
    ], ids=["docker-and-shifter", "two-singularity"])
    def test_containers_that_do_not_both_docker_load_may_share_an_image(self, first, second):
        text = f"cont:\n  - {{name: c1, {first}}}\n  - {{name: c2, {second}}}\n"
        assert list(parse_catalog(text).containers) == ["c1", "c2"]

    def test_duplicate_transformation_site(self):
        text = """
transformations:
  - {namespace: ns, name: a, version: "1", site: [{name: s1}, {name: s1}]}
"""
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == "duplicate transformation 'ns::a:1' at site 's1'"

    def test_malformed_document(self):
        with pytest.raises(ValidationError) as exc:
            parse_catalog("{unbalanced")
        assert str(exc.value) == (
            "catalog document is not valid YAML: while parsing a flow mapping\n"
            '  in "<unicode string>", line 1, column 1\n'
            "did not find expected ',' or '}'\n"
            '  in "<unicode string>", line 2, column 1')

    def test_non_env_profile_rejected(self):
        text = """
cont:
  - name: c1
    image: "docker:///x/y:1"
    type: docker
    profile:
      - condor: {universe: vanilla}
"""
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == "cont 'c1': only env profiles are supported, got 'condor'"

    def test_shifter_requires_shifter_url(self):
        text = """
cont:
  - {name: c1, image: "docker:///x/y:1", type: shifter}
"""
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == "container 'c1': shifter containers require a shifter image URL"

    def test_mount_not_a_sequence(self):
        text = """
cont:
  - {name: c1, image: "docker:///x/y:1", type: docker, mount: 5}
"""
        with pytest.raises(ValidationError, match="^container 'c1': mount must be a sequence$"):
            parse_catalog(text)

    @pytest.mark.parametrize("text, message", [
        ("cont:\n  - {name: c1, image: 'docker:///x/y:1', type: docker, profile: 5}\n",
         "cont 'c1': profile must be a sequence"),
        ("cont:\n  - {name: c1, image: 'docker:///x/y:1', type: docker, profile: [5]}\n",
         "cont 'c1': bad profile entry 5"),
        ("cont:\n  - {name: c1, image: 'docker:///x/y:1', type: docker,"
         " image_size_bytes: -1}\n", "container 'c1': negative image_size_bytes"),
        ("- cont: []\n- 5\n", "unexpected top-level entry 5"),
        ("cont:\n  - {name: '', image: 'docker:///x/y:1', type: docker}\n",
         "cont entry: container name must not be empty"),
        ("transformations:\n  - {namespace: ns, name: tool, version: '1', site:\n"
         "      [{name: s1, profile: [{env: {TOOL_HOME: /opt/tool}}]}]}\n",
         "transformation 'tool': env profiles go on the container, not the site"),
    ], ids=["profile-not-a-list", "profile-entry-not-a-mapping", "negative-image-size",
            "top-level-entry-not-a-mapping", "empty-container-name", "transformation-profile"])
    def test_malformed_entry_names_its_fault(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_catalog(text)
        assert str(exc.value) == message

    def test_round_trip(self, listing_text):
        cat = parse_catalog(listing_text)
        assert parse_catalog(serialize_catalog(cat)) == cat

    def test_extension_fields(self):
        text = """
cont:
  - name: c1
    image: "docker:///x/y:1"
    type: docker
    image_size_bytes: 12345
    site_local: true
"""
        cdef = parse_catalog(text).containers["c1"]
        assert cdef.image_size_bytes == 12345
        assert cdef.site_local is True


class TestResolveTransformation:
    def test_resolves_listing_entry(self, listing_text):
        cat = parse_catalog(listing_text)
        entry, cdef = resolve_transformation(cat, "example::keg:1.0", "isi")
        assert entry.pfn == "/shared/pegasus/bin/pegasus-keg"
        assert cdef is not None and cdef.name == "centos-pegasus"

    def test_no_container(self):
        cat = parse_catalog("""
transformations:
  - {namespace: ns, name: a, version: "1", site: [{name: s1}]}
""")
        entry, cdef = resolve_transformation(cat, "ns::a:1", "s1")
        assert cdef is None

    def test_logical_id_without_a_version(self, listing_text):
        cat = parse_catalog(listing_text)
        with pytest.raises(NotFound, match="^bad logical transformation id 'example::keg'$"):
            resolve_transformation(cat, "example::keg", "isi")

    def test_unknown_site(self, listing_text):
        cat = parse_catalog(listing_text)
        with pytest.raises(NotFound):
            resolve_transformation(cat, "example::keg:1.0", "elsewhere")


@given(st.sampled_from(["docker", "shub", "shifter"]),
       st.lists(st.text(alphabet="abcz09-", min_size=1, max_size=8),
                min_size=1, max_size=3),
       st.one_of(st.none(), st.text(alphabet="abcz09.", min_size=1, max_size=6)))
def test_image_url_parse_is_inverse_of_render(scheme, segments, tag):
    locator = "/".join(segments)
    url = f"{scheme}:///{locator}" + (f":{tag}" if tag else "")
    ref = parse_image_url(url)
    assert ref.scheme.value == scheme
    assert ref.locator == locator
    assert ref.tag == tag


class TestDemoCatalog:
    ENTRY = TransformationEntry(namespace="radar", name="nowcast", version="1.0",
                                site="condorpool", arch="x86_64", os="linux",
                                pfn="/usr/local/bin/nowcast",
                                install_type=InstallType.INSTALLED)

    @pytest.mark.parametrize("container, image, size", [
        ("docker", "docker:///imaging/radar-tools:latest", 488_000_000),
        ("singularity", "shub://singularity-hub.org/imaging/radar-tools", 153_000_000),
    ])
    def test_container_variants(self, container, image, size):
        assert demo_catalog(container) == Catalog(
            transformations=(replace(self.ENTRY, container="radar-tools"),),
            containers={"radar-tools": ContainerDef(
                name="radar-tools", image=parse_image_url(image),
                runtime=ContainerRuntime(container), image_size_bytes=size)},
        )

    def test_no_container(self):
        assert demo_catalog(None) == Catalog(transformations=(self.ENTRY,))

    def test_unknown_container(self):
        with pytest.raises(ValueError, match="unknown demo container 'shifter'"):
            demo_catalog("shifter")
