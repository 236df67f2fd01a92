"""POSIX ACLs and extended attributes (paper section 5.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vfs import (
    Acl,
    AclEntry,
    AclTag,
    Credentials,
    InvalidArgument,
    NoData,
    PermissionDenied,
    Syscalls,
    VirtualFileSystem,
)

ALICE = Credentials(uid=1000, gid=1000)
BOB = Credentials(uid=1001, gid=1001)
CHARLIE = Credentials(uid=1002, gid=1002)


def test_acl_from_mode_matches_mode_bits():
    acl = Acl.from_mode(0o640)
    assert acl.check(ALICE, 1000, 1000, 4)
    assert acl.check(ALICE, 1000, 1000, 6)
    assert not acl.check(BOB, 1000, 1000, 4)


def test_named_user_entry_grants(vfs, sc):
    sc.write_text("/f", "x")
    sc.chown("/f", ALICE.uid, ALICE.gid)
    sc.chmod("/f", 0o600)
    bob = Syscalls(vfs, cred=BOB)
    with pytest.raises(PermissionDenied):
        bob.read_text("/f")
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 6),
            AclEntry(AclTag.USER, 4, qualifier=BOB.uid),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    sc.set_acl("/f", acl)
    assert bob.read_text("/f") == "x"
    charlie = Syscalls(vfs, cred=CHARLIE)
    with pytest.raises(PermissionDenied):
        charlie.read_text("/f")


def test_mask_caps_named_entries():
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.USER, 7, qualifier=BOB.uid),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.MASK, 4),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(BOB, ALICE.uid, ALICE.gid, 4)
    assert not acl.check(BOB, ALICE.uid, ALICE.gid, 2)


def test_mask_does_not_cap_owner():
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.MASK, 0),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(ALICE, ALICE.uid, ALICE.gid, 7)


def test_group_entries_any_match_grants():
    member = Credentials(uid=50, gid=10, groups=frozenset({20}))
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.GROUP, 0, qualifier=10),
            AclEntry(AclTag.GROUP, 4, qualifier=20),
            AclEntry(AclTag.OTHER, 0),
        )
    )
    assert acl.check(member, 0, 10, 4)


def test_group_match_blocks_other_fallback():
    member = Credentials(uid=50, gid=10)
    acl = Acl(
        entries=(
            AclEntry(AclTag.USER_OBJ, 7),
            AclEntry(AclTag.GROUP_OBJ, 0),
            AclEntry(AclTag.OTHER, 7),
        )
    )
    # gid matches the owning group, which denies; "other" must not rescue.
    assert not acl.check(member, 0, 10, 4)


def test_root_always_passes_acl():
    acl = Acl(entries=(AclEntry(AclTag.USER_OBJ, 0), AclEntry(AclTag.OTHER, 0)))
    assert acl.check(Credentials(uid=0, gid=0), 1, 1, 7)


def test_acl_entry_validation():
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.USER, 4)  # missing qualifier
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.OTHER, 4, qualifier=5)  # spurious qualifier
    with pytest.raises(InvalidArgument):
        AclEntry(AclTag.OTHER, 9)  # bad perms


def test_setfacl_requires_ownership(vfs, sc):
    sc.write_text("/f", "x")
    bob = Syscalls(vfs, cred=BOB)
    from repro.vfs import NotPermitted

    with pytest.raises(NotPermitted):
        bob.set_acl("/f", Acl.from_mode(0o777))


# -- the one access rule against the two it replaced ------------------------------------


def _scan_check(entries, cred, owner_uid, owner_gid, want):
    """The reference model: ``Acl.check`` as it stood before the index, a scan of the entry tuple per question."""
    if cred.is_root:
        return True
    mask = 7
    for entry in entries:
        if entry.tag is AclTag.MASK:
            mask = entry.perms
            break
    # 1. owning user.
    if cred.uid == owner_uid:
        for entry in entries:
            if entry.tag is AclTag.USER_OBJ:
                return entry.perms & want == want
        return False
    # 2. named user (masked).
    for entry in entries:
        if entry.tag is AclTag.USER and entry.qualifier == cred.uid:
            return entry.perms & mask & want == want
    # 3. owning group + named groups: allowed if any matching entry grants.
    group_matched = False
    for entry in entries:
        if entry.tag is AclTag.GROUP_OBJ and cred.in_group(owner_gid):
            group_matched = True
            if entry.perms & mask & want == want:
                return True
        elif entry.tag is AclTag.GROUP and entry.qualifier is not None and cred.in_group(entry.qualifier):
            group_matched = True
            if entry.perms & mask & want == want:
                return True
    if group_matched:
        return False
    # 4. other.
    for entry in entries:
        if entry.tag is AclTag.OTHER:
            return entry.perms & want == want
    return False


def _mode_check(mode, cred, owner_uid, owner_gid, want):
    """The reference model: the inline mode-bit rule ``check_access`` used to hold."""
    if cred.is_root:
        return True
    if cred.uid == owner_uid:
        bits = mode >> 6
    elif cred.in_group(owner_gid):
        bits = mode >> 3
    else:
        bits = mode
    return bits & 7 & want == want


_ids = st.integers(min_value=0, max_value=4)  # few enough that owner, named entries and uid 0 collide
_perms = st.integers(min_value=0, max_value=7)
_entries = st.lists(
    st.one_of(
        st.builds(AclEntry, st.sampled_from([AclTag.USER_OBJ, AclTag.GROUP_OBJ, AclTag.MASK, AclTag.OTHER]), _perms),
        st.builds(AclEntry, st.sampled_from([AclTag.USER, AclTag.GROUP]), _perms, _ids),
    ),
    max_size=8,
).map(tuple)
_creds = st.builds(Credentials, uid=_ids, gid=_ids, groups=st.frozensets(_ids, max_size=3))


@settings(max_examples=300, deadline=None)
@given(_entries, _creds, _ids, _ids, _perms)
def test_indexed_check_equals_the_scan(entries, cred, owner_uid, owner_gid, want):
    acl = Acl(entries=entries)
    assert acl.check(cred, owner_uid, owner_gid, want) == _scan_check(entries, cred, owner_uid, owner_gid, want)
    assert acl == Acl(entries=entries) and hash(acl) == hash(Acl(entries=entries))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=0o7777), _creds, _ids, _ids, _perms)
def test_an_inode_without_an_acl_is_judged_by_its_mode_bits(mode, cred, owner_uid, owner_gid, want):
    vfs = VirtualFileSystem()
    node = vfs.root_fs.make_file(mode=mode, uid=owner_uid, gid=owner_gid)
    allowed = _mode_check(mode, cred, owner_uid, owner_gid, want)
    if allowed:
        vfs.check_access(node, cred, want, "/f")
    else:
        with pytest.raises(PermissionDenied):
            vfs.check_access(node, cred, want, "/f")
    assert Acl.from_mode(mode).check(cred, owner_uid, owner_gid, want) == allowed


# -- xattrs ---------------------------------------------------------------------------


def test_xattr_set_get_list_remove(sc):
    sc.write_text("/f", "x")
    sc.setxattr("/f", "user.consistency", b"strict")
    sc.setxattr("/f", "user.owner-team", b"neteng")
    assert sc.getxattr("/f", "user.consistency") == b"strict"
    assert sc.listxattr("/f") == ["user.consistency", "user.owner-team"]
    sc.removexattr("/f", "user.consistency")
    assert sc.listxattr("/f") == ["user.owner-team"]


def test_getxattr_missing_raises_nodata(sc):
    sc.write_text("/f", "x")
    with pytest.raises(NoData):
        sc.getxattr("/f", "user.absent")


def test_removexattr_missing_raises_nodata(sc):
    sc.write_text("/f", "x")
    with pytest.raises(NoData):
        sc.removexattr("/f", "user.absent")


def test_xattr_needs_write_access(vfs, sc):
    sc.write_text("/f", "x")
    sc.chmod("/f", 0o644)
    bob = Syscalls(vfs, cred=BOB)
    with pytest.raises(PermissionDenied):
        bob.setxattr("/f", "user.sneak", b"1")
    assert bob.listxattr("/f") == []


def test_xattr_on_directories(sc):
    sc.mkdir("/d")
    sc.setxattr("/d", "user.view", b"gold")
    assert sc.getxattr("/d", "user.view") == b"gold"
