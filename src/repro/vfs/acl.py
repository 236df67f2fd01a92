"""POSIX-style access control lists.

Section 5.1 of the paper points at the VFS layer's "basic Unix permissions,
access control lists (ACLs), and extended attributes" as the mechanism for
fine-grained control of network resources.  This module implements the
POSIX.1e access-check algorithm (simplified: no default/inherited ACLs):

1. root is always allowed;
2. a ``user::`` / ``USER_OBJ`` entry applies to the owner;
3. a named ``user:<uid>`` entry applies to that uid (masked);
4. the owning group / named groups apply if any grants the bits (masked);
5. ``other::`` applies to everyone else.

It is the VFS's one access rule: an inode without an ACL is judged by
:meth:`Acl.from_mode` of its mode bits.  An :class:`Acl` is frozen and only
ever rebound, so the scan of its entries happens once, at construction —
``Acl._index`` holds the answer to each step (mask already applied) and
:meth:`Acl.check` reads it.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from repro.vfs.cred import Credentials
from repro.vfs.errors import InvalidArgument


class AclTag(enum.Enum):
    """The POSIX.1e entry tags we support."""

    USER_OBJ = "user_obj"  # the owning user (user::)
    USER = "user"  # a named user (user:<uid>:)
    GROUP_OBJ = "group_obj"  # the owning group (group::)
    GROUP = "group"  # a named group (group:<gid>:)
    MASK = "mask"  # upper bound for named users and all groups
    OTHER = "other"  # everyone else


@dataclass(frozen=True)
class AclEntry:
    """One ACL entry: a tag, an optional qualifier, and rwx permission bits."""

    tag: AclTag
    perms: int
    qualifier: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.perms <= 7:
            raise InvalidArgument(detail=f"ACL perms must be 0..7, got {self.perms}")
        needs_qualifier = self.tag in (AclTag.USER, AclTag.GROUP)
        if needs_qualifier and self.qualifier is None:
            raise InvalidArgument(detail=f"{self.tag.value} entry requires a qualifier")
        if not needs_qualifier and self.qualifier is not None:
            raise InvalidArgument(detail=f"{self.tag.value} entry takes no qualifier")


@dataclass(frozen=True)
class Acl:
    """An ordered set of ACL entries."""

    entries: tuple[AclEntry, ...]
    #: What ``check`` reads, derived once in ``__post_init__`` and outside ``==`` / ``hash``:
    #: (user:: perms, {uid: perms & mask}, ((gid, perms & mask), ...) with gid None for group::,
    #: other:: perms).  The first entry of a kind wins; a missing one is None and refuses.
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mask = next((entry.perms for entry in self.entries if entry.tag is AclTag.MASK), 7)
        first: dict[AclTag, int] = {}
        users: dict[int, int] = {}
        groups: list[tuple[int | None, int]] = []
        for entry in self.entries:
            first.setdefault(entry.tag, entry.perms)
            if entry.tag is AclTag.USER:
                users.setdefault(entry.qualifier, entry.perms & mask)
            elif entry.tag in (AclTag.GROUP_OBJ, AclTag.GROUP):
                groups.append((entry.qualifier, entry.perms & mask))
        object.__setattr__(self, "_index", (first.get(AclTag.USER_OBJ), users, tuple(groups), first.get(AclTag.OTHER)))

    @classmethod
    @functools.lru_cache(maxsize=512)
    def from_mode(cls, mode: int) -> "Acl":
        """The minimal ACL equivalent to plain mode bits (how an inode without an ACL is judged)."""
        return cls(
            entries=(
                AclEntry(AclTag.USER_OBJ, mode >> 6 & 7),
                AclEntry(AclTag.GROUP_OBJ, mode >> 3 & 7),
                AclEntry(AclTag.OTHER, mode & 7),
            )
        )

    def check(self, cred: Credentials, owner_uid: int, owner_gid: int, want: int) -> bool:
        """POSIX.1e access check: does ``cred`` get all bits in ``want``?"""
        if cred.is_root:
            return True
        uid = cred.uid
        owner, users, groups, other = self._index
        if uid == owner_uid:
            perms = owner
        elif uid in users:
            perms = users[uid]
        else:
            # Owning group + named groups: allowed if any matching entry grants, refused if one matched.
            matched = False
            for gid, group_perms in groups:
                if cred.in_group(owner_gid if gid is None else gid):
                    if group_perms & want == want:
                        return True
                    matched = True
            if matched:
                return False
            perms = other
        return perms is not None and perms & want == want
