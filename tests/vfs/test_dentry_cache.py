"""The resolution memo: hits, and every edge that must not be served stale.

Each mutation that can strand a memoized resolution — rename, unlink,
rmdir, mount, umount, symlink retargeting, chmod/chown/setfacl — gets a
test proving the next resolution sees the post-mutation truth, plus
checks that principals never share a verdict, that unrelated mutations
leave an entry standing, and that the counters and the PerfCounters
bridge behave.
"""

import pytest

from repro.vfs import (
    Acl,
    Credentials,
    FileNotFound,
    MemFs,
    PermissionDenied,
    Syscalls,
)

# -- basic caching behavior ---------------------------------------------------


def test_repeat_resolution_hits_the_cache(sc):
    sc.makedirs("/net/switches/s1")
    sc.write_text("/net/switches/s1/ports", "4")
    assert sc.read_text("/net/switches/s1/ports") == "4"
    before = sc.ns.dcache.stats()
    for _ in range(3):
        assert sc.read_text("/net/switches/s1/ports") == "4"
    after = sc.ns.dcache.stats()
    assert after["path_hits"] > before["path_hits"]
    assert after["invalidations"] == before["invalidations"]


def test_component_entries_shared_across_sibling_paths(sc):
    """Sibling leaves share a prefix through the tree itself: each resolves
    to its own inode, memoized apart from the other."""
    sc.makedirs("/a/b")
    sc.write_text("/a/b/one", "1")
    sc.write_text("/a/b/two", "2")
    for _ in range(2):
        assert sc.read_text("/a/b/one") == "1"
        assert sc.read_text("/a/b/two") == "2"
    assert sc.stat("/a/b/one").ino != sc.stat("/a/b/two").ino


def test_lookup_twin_reports_live_entries(sc):
    """A resolution that succeeded is held and served; one that failed is
    never stored, so there is no negative entry to go stale."""
    sc.mkdir("/d")
    sc.write_text("/d/f", "x")
    sc.stat("/d/f")
    held = sc.ns.dcache.stats()
    sc.stat("/d/f")
    for _ in range(2):
        with pytest.raises(FileNotFound):
            sc.stat("/d/missing")
    after = sc.ns.dcache.stats()
    assert after["path_hits"] == held["path_hits"] + 1
    assert after["path_entries"] == held["path_entries"]


def test_cache_disabled_still_resolves(sc):
    sc.ns.dcache.enabled = False
    sc.makedirs("/x/y")
    sc.write_text("/x/y/f", "plain")
    assert sc.read_text("/x/y/f") == "plain"
    assert sc.ns.dcache.stats()["path_entries"] == 0
    assert sc.ns.dcache.path_hits == 0 and sc.ns.dcache.path_misses == 0


def test_sibling_create_does_not_invalidate(sc):
    """Creating ``flows/f2`` touches no dentry ``flows/f1/version`` walked."""
    sc.makedirs("/net/flows/f1")
    sc.write_text("/net/flows/f1/version", "1")
    sc.stat("/net/flows/f1/version")
    before = sc.ns.dcache.stats()
    sc.mkdir("/net/flows/f2")
    sc.write_text("/net/flows/f2/version", "1")
    mid = sc.ns.dcache.stats()
    sc.stat("/net/flows/f1/version")
    after = sc.ns.dcache.stats()
    assert after["invalidations"] == before["invalidations"]
    assert (after["path_hits"], after["path_misses"]) == (mid["path_hits"] + 1, mid["path_misses"])


# -- invalidation edges -------------------------------------------------------


def test_rename_over_a_cached_entry(sc):
    sc.mkdir("/etc")
    sc.write_text("/etc/conf", "old")
    sc.write_text("/etc/conf.new", "new")
    assert sc.read_text("/etc/conf") == "old"  # now cached
    sc.rename("/etc/conf.new", "/etc/conf")
    assert sc.read_text("/etc/conf") == "new"


def test_rename_away_kills_the_old_name(sc):
    sc.mkdir("/d")
    sc.write_text("/d/f", "x")
    sc.stat("/d/f")
    sc.rename("/d/f", "/d/g")
    with pytest.raises(FileNotFound):
        sc.stat("/d/f")
    assert sc.read_text("/d/g") == "x"


def test_renamed_directory_invalidates_cached_descendants(sc):
    sc.makedirs("/a/b/c")
    sc.write_text("/a/b/c/f", "deep")
    assert sc.read_text("/a/b/c/f") == "deep"  # whole chain cached
    sc.rename("/a/b", "/a/z")
    with pytest.raises(FileNotFound):
        sc.stat("/a/b/c/f")
    assert sc.read_text("/a/z/c/f") == "deep"


def test_unlink_invalidates(sc):
    sc.write_text("/gone", "x")
    sc.stat("/gone")
    sc.unlink("/gone")
    with pytest.raises(FileNotFound):
        sc.stat("/gone")


def test_rmdir_invalidates(sc):
    sc.mkdir("/tmpdir")
    sc.stat("/tmpdir")
    sc.rmdir("/tmpdir")
    with pytest.raises(FileNotFound):
        sc.stat("/tmpdir")


def test_mount_over_a_cached_entry(sc):
    sc.mkdir("/m")
    sc.write_text("/m/under", "below")
    assert sc.read_text("/m/under") == "below"  # /m cached as the rootfs dir
    sc.mount("/m", MemFs())
    with pytest.raises(FileNotFound):
        sc.read_text("/m/under")


def test_umount_under_a_cached_prefix(sc):
    sc.mkdir("/m")
    sc.write_text("/m/under", "below")
    extra = MemFs()
    sc.mount("/m", extra)
    sc.write_text("/m/f", "on extra")
    assert sc.read_text("/m/f") == "on extra"  # cached across the crossing
    flushes = sc.ns.dcache.flushes
    sc.umount("/m")
    assert sc.ns.dcache.flushes == flushes + 1
    with pytest.raises(FileNotFound):
        sc.read_text("/m/f")
    assert sc.read_text("/m/under") == "below"


def test_symlink_retarget_is_seen(sc):
    sc.makedirs("/v1")
    sc.makedirs("/v2")
    sc.write_text("/v1/data", "one")
    sc.write_text("/v2/data", "two")
    sc.symlink("/v1", "/current")
    assert sc.read_text("/current/data") == "one"
    sc.unlink("/current")
    sc.symlink("/v2", "/current")
    assert sc.read_text("/current/data") == "two"


def test_dotdot_after_symlink_retarget(sc):
    """``..`` records a permission-only dep; the retargeted link before it
    is what kills the entry."""
    sc.makedirs("/a")
    sc.makedirs("/b1/c")
    sc.makedirs("/b2/c")
    sc.write_text("/b1/x", "one")
    sc.write_text("/b2/x", "two")
    sc.symlink("/b1/c", "/a/link")
    assert sc.read_text("/a/link/../x") == "one"
    hits = sc.ns.dcache.path_hits
    assert sc.read_text("/a/link/../x") == "one"
    assert sc.ns.dcache.path_hits > hits  # memoized, ".." and all
    sc.unlink("/a/link")
    sc.symlink("/b2/c", "/a/link")
    assert sc.read_text("/a/link/../x") == "two"


def test_dotdot_dep_enforces_exec_on_the_directory_it_left(vfs, sc):
    sc.makedirs("/p/q")
    sc.write_text("/p/f", "x")
    user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    for _ in range(2):
        assert user.read_text("/p/q/../f") == "x"
    sc.chmod("/p/q", 0o700)
    with pytest.raises(PermissionDenied):
        user.read_text("/p/q/../f")


def test_negative_entry_then_create(sc):
    """ENOENT is re-derived every time, so a create is seen at once."""
    sc.mkdir("/spool")
    for _ in range(2):
        with pytest.raises(FileNotFound):
            sc.stat("/spool/job")
    sc.write_text("/spool/job", "queued")
    assert sc.read_text("/spool/job") == "queued"
    sc.unlink("/spool/job")
    with pytest.raises(FileNotFound):
        sc.stat("/spool/job")


def _memoized_reader(vfs, sc):
    """A non-root principal that has resolved ``/p/q/f`` twice (so through the memo)."""
    sc.makedirs("/p/q")
    sc.write_text("/p/q/f", "secret")
    user = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000))
    hits = sc.ns.dcache.path_hits
    assert user.read_text("/p/q/f") == "secret"
    assert user.read_text("/p/q/f") == "secret"
    assert sc.ns.dcache.path_hits > hits
    return user


def test_chmod_on_intermediate_dir_is_enforced(vfs, sc):
    user = _memoized_reader(vfs, sc)
    sc.chmod("/p", 0o700)  # root-only from now on
    with pytest.raises(PermissionDenied):
        user.stat("/p/q/f")
    assert sc.read_text("/p/q/f") == "secret"  # root still passes
    sc.chmod("/p", 0o755)
    assert user.read_text("/p/q/f") == "secret"


@pytest.mark.parametrize("mode, owner", [(0o700, (1000, 0)), (0o070, (0, 1000))], ids=["uid", "gid"])
def test_chown_on_intermediate_dir_is_enforced(vfs, sc, mode, owner):
    sc.mkdir("/p")
    sc.chown("/p", *owner)
    sc.chmod("/p", mode)  # the owner's (the group's) alone
    user = _memoized_reader(vfs, sc)
    sc.chown("/p", 0, 0)
    with pytest.raises(PermissionDenied):
        user.stat("/p/q/f")
    assert sc.read_text("/p/q/f") == "secret"


def test_acl_change_on_intermediate_dir_is_enforced(vfs, sc):
    user = _memoized_reader(vfs, sc)
    sc.set_acl("/p", Acl.from_mode(0o700))  # root-only from now on
    with pytest.raises(PermissionDenied):
        user.stat("/p/q/f")
    assert sc.read_text("/p/q/f") == "secret"  # root still passes


def test_principals_alternating_on_one_path_keep_their_own_verdicts(vfs, sc):
    sc.makedirs("/p/q")
    sc.write_text("/p/q/f", "secret")
    sc.write_text("/pub", "open")
    sc.chown("/p", 0, 50)
    sc.chmod("/p", 0o750)  # group 50 may traverse, others may not
    member = Syscalls(vfs, cred=Credentials(uid=1000, gid=1000, groups=frozenset({50})))
    outsider = Syscalls(vfs, cred=Credentials(uid=2000, gid=2000))
    rounds = 5
    before = sc.ns.dcache.stats()
    for _ in range(rounds):
        assert member.read_text("/p/q/f") == "secret"
        with pytest.raises(PermissionDenied):
            outsider.stat("/p/q/f")
        assert member.read_text("/pub") == "open"
        assert outsider.read_text("/pub") == "open"
    after = sc.ns.dcache.stats()
    # After the first round every allowed look-up is a hit: neither
    # principal evicts the other's entry, and a refusal is never stored.
    assert after["path_hits"] - before["path_hits"] == 3 * (rounds - 1)
    assert after["invalidations"] == before["invalidations"]


# -- namespace scoping --------------------------------------------------------


def test_clone_starts_with_an_empty_cache(vfs, sc):
    sc.makedirs("/warm/path")
    sc.stat("/warm/path")
    clone = sc.ns.clone()
    assert clone.dcache.stats()["path_entries"] == 0
    proc = Syscalls(vfs, ns=clone)
    proc.stat("/warm/path")  # resolves and warms the clone's own memo
    assert clone.dcache.stats()["path_entries"] == 1
    proc.stat("/warm/path")
    assert clone.dcache.path_hits == 1


def test_private_mounts_do_not_flush_other_namespaces(vfs, sc):
    sc.mkdir("/shared")
    sc.stat("/shared")
    flushes = sc.ns.dcache.flushes
    proc = Syscalls(vfs, ns=sc.ns.clone())
    proc.mount("/shared", MemFs())
    assert sc.ns.dcache.flushes == flushes  # only the clone's cache flushed


# -- bounds and counters ------------------------------------------------------


def test_capacity_bound_evicts_instead_of_growing(sc):
    sc.ns.dcache.capacity = 4
    sc.mkdir("/many")
    for i in range(10):
        sc.write_text(f"/many/f{i}", "x")
        sc.stat(f"/many/f{i}")
    assert len(sc.ns.dcache.paths) <= 4
    assert sc.ns.dcache.evictions > 0


def test_counters_publish_into_perfcounters(vfs, sc):
    sc.makedirs("/n/s")
    sc.write_text("/n/s/f", "x")
    for _ in range(5):
        sc.read_text("/n/s/f")
    sc.ns.dcache.publish(vfs.counters)
    assert vfs.counters.get("dcache.path_hits") > 0
    assert vfs.counters.get("dcache.path_misses") > 0
    # publishing is delta-based: an immediate re-publish adds nothing
    hits = vfs.counters.get("dcache.path_hits")
    sc.ns.dcache.publish(vfs.counters)
    assert vfs.counters.get("dcache.path_hits") == hits
