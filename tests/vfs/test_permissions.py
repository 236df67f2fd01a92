"""Unix permissions, ownership, and sticky-bit semantics."""

import pytest

from repro.vfs import Credentials, NotPermitted, PermissionDenied, Syscalls

ALICE = Credentials(uid=1000, gid=1000)
BOB = Credentials(uid=1001, gid=1001)
GROUPIE = Credentials(uid=1002, gid=2000, groups=frozenset({1000}))


@pytest.fixture
def alice(vfs, sc):
    sc.mkdir("/home")
    sc.mkdir("/home/alice")
    sc.chown("/home/alice", ALICE.uid, ALICE.gid)
    return Syscalls(vfs, cred=ALICE)


@pytest.fixture
def bob(vfs, alice):
    return Syscalls(vfs, cred=BOB)


def test_owner_reads_and_writes(alice):
    alice.write_text("/home/alice/f", "mine")
    assert alice.read_text("/home/alice/f") == "mine"


def test_other_denied_write_0644(alice, bob):
    alice.write_text("/home/alice/f", "mine")
    with pytest.raises(PermissionDenied):
        bob.write_text("/home/alice/f", "theirs")


def test_other_can_read_0644(alice, bob):
    alice.write_text("/home/alice/f", "mine")
    assert bob.read_text("/home/alice/f") == "mine"


def test_mode_0600_blocks_other_read(alice, bob):
    alice.write_text("/home/alice/secret", "s")
    alice.chmod("/home/alice/secret", 0o600)
    with pytest.raises(PermissionDenied):
        bob.read_text("/home/alice/secret")


def test_group_bits_apply_to_group_members(alice, vfs):
    alice.write_text("/home/alice/shared", "g")
    alice.chmod("/home/alice/shared", 0o640)
    group_member = Syscalls(vfs, cred=GROUPIE)
    assert group_member.read_text("/home/alice/shared") == "g"
    stranger = Syscalls(vfs, cred=BOB)
    with pytest.raises(PermissionDenied):
        stranger.read_text("/home/alice/shared")


def test_exec_bit_required_to_traverse(alice, bob):
    alice.mkdir("/home/alice/private")
    alice.write_text("/home/alice/private/f", "x")
    alice.chmod("/home/alice/private", 0o600)  # no exec for anyone but traversal needs it
    with pytest.raises(PermissionDenied):
        bob.read_text("/home/alice/private/f")


def test_write_into_unwritable_dir_denied(alice, bob):
    with pytest.raises(PermissionDenied):
        bob.write_text("/home/alice/intruder", "x")


def test_unlink_needs_parent_write(alice, bob):
    alice.write_text("/home/alice/f", "x")
    with pytest.raises(PermissionDenied):
        bob.unlink("/home/alice/f")


def test_root_bypasses_everything(alice, sc):
    alice.write_text("/home/alice/secret", "s")
    alice.chmod("/home/alice/secret", 0o000)
    assert sc.read_text("/home/alice/secret") == "s"
    sc.write_text("/home/alice/secret", "root was here")


def test_chmod_requires_ownership(alice, bob):
    alice.write_text("/home/alice/f", "x")
    with pytest.raises(NotPermitted):
        bob.chmod("/home/alice/f", 0o777)


def test_chown_requires_root(alice):
    alice.write_text("/home/alice/f", "x")
    with pytest.raises(NotPermitted):
        alice.chown("/home/alice/f", 0, 0)


def test_owner_may_chgrp_to_own_group(vfs, sc):
    member = Credentials(uid=1000, gid=1000, groups=frozenset({3000}))
    sc.mkdir("/d")
    sc.chown("/d", 1000, 1000)
    proc = Syscalls(vfs, cred=member)
    proc.chown("/d", 1000, 3000)
    assert proc.stat("/d").gid == 3000


def test_created_files_get_creator_ownership(alice):
    alice.write_text("/home/alice/f", "x")
    st = alice.stat("/home/alice/f")
    assert (st.uid, st.gid) == (ALICE.uid, ALICE.gid)


def test_sticky_directory_protects_entries(vfs, sc):
    sc.mkdir("/tmp")
    sc.chmod("/tmp", 0o1777)
    alice = Syscalls(vfs, cred=ALICE)
    bob = Syscalls(vfs, cred=BOB)
    alice.write_text("/tmp/alice_file", "x")
    with pytest.raises(NotPermitted):
        bob.unlink("/tmp/alice_file")
    alice.unlink("/tmp/alice_file")  # the owner may


def test_readdir_needs_read_bit(alice, bob):
    alice.mkdir("/home/alice/d")
    alice.chmod("/home/alice/d", 0o711)
    alice.write_text("/home/alice/d/f", "x")
    with pytest.raises(PermissionDenied):
        bob.listdir("/home/alice/d")
    assert bob.read_text("/home/alice/d/f") == "x"  # exec-only traversal works


def test_walk_needs_read_and_exec_on_every_directory_it_lists(alice, bob, sc):
    alice.mkdir("/home/alice/p")
    alice.mkdir("/home/alice/p/open")
    alice.mkdir("/home/alice/p/q")
    alice.write_text("/home/alice/p/open/f", "x")
    alice.write_text("/home/alice/p/q/secret-name", "x")
    alice.chmod("/home/alice/p/q", 0o700)
    everything = [
        ("/home/alice/p", ["open", "q"], []),
        ("/home/alice/p/open", [], ["f"]),
        ("/home/alice/p/q", [], ["secret-name"]),
    ]
    assert list(alice.walk("/home/alice/p")) == everything
    assert list(sc.walk("/home/alice/p")) == everything  # root
    # A refusing sub-directory stays named by its parent and is neither
    # entered nor billed (os.walk's onerror=None).
    billed = bob.meter.counters.get("syscall.getdents")
    assert list(bob.walk("/home/alice/p")) == everything[:2]
    assert bob.meter.counters.get("syscall.getdents") == billed + 2
    # The top directory raises: exec-only reaches through it, not into it.
    alice.chmod("/home/alice/p", 0o711)
    with pytest.raises(PermissionDenied):
        list(bob.walk("/home/alice/p"))
    with pytest.raises(PermissionDenied):
        list(bob.walk("/home/alice/p/q"))
    assert list(bob.walk("/home/alice/p/open")) == everything[1:2]
