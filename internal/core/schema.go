package core

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// FileType distinguishes the kinds of metadata objects in the namespace.
type FileType uint8

const (
	// TypeRegular is an ordinary file.
	TypeRegular FileType = iota + 1
	// TypeDir is a directory.
	TypeDir
	// TypeSymlink is a symbolic link.
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	default:
		return fmt.Sprintf("FileType(%d)", uint8(t))
	}
}

// Perm is a POSIX permission/mode word.
type Perm uint16

// DefaultFilePerm and DefaultDirPerm are used when a caller does not specify
// a mode.
const (
	DefaultFilePerm Perm = 0o644
	DefaultDirPerm  Perm = 0o755
)

// Attr is the attribute block shared by files and directories (Tab. 3).
// Timestamps are virtual-clock nanoseconds; the environment supplies them.
type Attr struct {
	Type  FileType
	Perm  Perm
	UID   uint32
	GID   uint32
	Size  int64 // bytes for files; entry count for directories
	Atime int64
	Mtime int64
	Ctime int64
	Nlink uint32
}

// Inode is a metadata object stored in the key-value store. Directories carry
// their 256-bit ID; regular files carry a FileID only when they participate
// in hard links.
type Inode struct {
	Attr
	// ID is the directory identifier; zero for non-directories.
	ID DirID
	// File is the file attribute-object id (hard-link support); zero when
	// the file has a single reference stored inline.
	File FileID
	// DataLoc names the data servers holding the file content; metadata-only
	// workloads leave it empty.
	DataLoc []uint32
}

// DirEntry is one entry of a directory's entry list, stored as its own
// key-value pair colocated with the directory inode (Tab. 3).
type DirEntry struct {
	Name string
	Type FileType
	Perm Perm
}

// Key addresses a metadata object: the concatenation of the parent
// directory's id and the component name (§4.3).
type Key struct {
	PID  DirID
	Name string
}

func (k Key) String() string { return k.PID.String()[:8] + "…/" + k.Name }

// Storage-table tags. Inodes and directory entries are distinct tables in
// the metadata store (Tab. 3); the tag byte keeps their keyspaces disjoint —
// the inode of /a/b (keyed by parent id + "b") and root's dentry "b" (keyed
// by directory id + "b") must never collide.
const (
	tagInode byte = 'i'
	tagEntry byte = 'e'
)

// Encode renders the inode-table key: tag, parent id, separator, name.
// Lexicographic order groups a parent's inode keys together.
func (k Key) Encode() []byte {
	return k.AppendEncode(make([]byte, 0, KeyLen(k.Name)))
}

// KeyLen is the length of the encoding of a key named name.
func KeyLen(name string) int { return 1 + 32 + 1 + len(name) }

// MaxKeyLen bounds the encoding of a key with a valid name: a buffer of this
// size holds any of them.
const MaxKeyLen = 1 + 32 + 1 + MaxNameLen

// AppendEncode appends the Encode form of k to b, so callers can encode into
// a buffer they own.
func (k Key) AppendEncode(b []byte) []byte {
	b = append(b, tagInode)
	b = k.PID.AppendBinary(b)
	b = append(b, '/')
	return append(b, k.Name...)
}

// Compare orders keys as bytes.Compare orders their encodings, without
// encoding them: the PID is fixed-width big-endian, so comparing its words
// and then the names is the byte order.
func (k Key) Compare(o Key) int {
	for i := range k.PID {
		if k.PID[i] != o.PID[i] {
			if k.PID[i] < o.PID[i] {
				return -1
			}
			return 1
		}
	}
	return strings.Compare(k.Name, o.Name)
}

// DecodeKey parses an inode-table key encoded by Key.Encode. Keys from other
// tables return an error.
func DecodeKey(b []byte) (Key, error) {
	if len(b) < 34 || b[0] != tagInode || b[33] != '/' {
		return Key{}, fmt.Errorf("core: not an inode key (%d bytes)", len(b))
	}
	return Key{PID: DirIDFromBytes(b[1:33]), Name: string(b[34:])}, nil
}

// EntryPrefix is the entry-table scan prefix selecting every dentry of
// directory id. Dentries are stored on the same server as the directory's
// inode (Tab. 3).
func EntryPrefix(id DirID) []byte {
	return AppendEntryPrefix(make([]byte, 0, 34), id)
}

// AppendEntryPrefix appends EntryPrefix(id) to b; appending a name after it
// forms that dentry's key.
func AppendEntryPrefix(b []byte, id DirID) []byte {
	b = append(b, tagEntry)
	b = id.AppendBinary(b)
	return append(b, '/')
}

// Fingerprint of the directory identified by key (pid,name): used both by
// clients (to stamp requests) and servers (to stamp dirty-set updates).
func (k Key) Fingerprint() Fingerprint { return FingerprintOf(k.PID, k.Name) }

// DirRef fully identifies a directory to the protocol: its 256-bit id (which
// addresses the entry list), the key of its own inode (which addresses its
// attributes on the owner server), and its fingerprint (which addresses its
// state in the switch). Clients learn DirRefs during path resolution and pass
// them in requests so servers never resolve paths themselves.
type DirRef struct {
	ID  DirID
	Key Key
	FP  Fingerprint
}

// RootRef is the DirRef of "/": its inode is stored under the zero parent
// with an empty name.
func RootRef() DirRef {
	k := Key{PID: DirID{}, Name: ""}
	return DirRef{ID: RootDirID, Key: k, FP: k.Fingerprint()}
}

// ValidateName rejects component names the namespace cannot store.
func ValidateName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("%w: empty name", ErrInvalid)
	case name == "." || name == "..":
		return fmt.Errorf("%w: reserved name %q", ErrInvalid, name)
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("%w: name %q contains '/'", ErrInvalid, name)
	case len(name) > MaxNameLen:
		return fmt.Errorf("%w: name longer than %d bytes", ErrInvalid, MaxNameLen)
	}
	return nil
}

// MaxNameLen bounds a single path component, as in POSIX NAME_MAX.
const MaxNameLen = 255

// SplitPath normalizes an absolute slash-separated path into its components.
// The empty list denotes the root directory. The components are substrings of
// path, so the list is the one allocation.
func SplitPath(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, fmt.Errorf("%w: path %q is not absolute", ErrInvalid, path)
	}
	comps := make([]string, 0, strings.Count(path, "/"))
	for rest, more := path[1:], true; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		switch c {
		case "", ".":
			continue
		case "..":
			if len(comps) == 0 {
				return nil, fmt.Errorf("%w: path %q escapes root", ErrInvalid, path)
			}
			comps = comps[:len(comps)-1]
		default:
			if err := ValidateName(c); err != nil {
				return nil, err
			}
			comps = append(comps, c)
		}
	}
	return comps, nil
}

// EncodeInode serializes an inode for storage in the KV store and the WAL.
func EncodeInode(in *Inode) []byte {
	return AppendInode(make([]byte, 0, InodeLen(in)), in)
}

// InodeLen is the length of the encoding of in.
func InodeLen(in *Inode) int { return inodeFixedLen + 4*len(in.DataLoc) }

// AppendInode appends the EncodeInode form of in to b, so callers can encode
// into a buffer they own.
func AppendInode(b []byte, in *Inode) []byte {
	b = append(b, byte(in.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(in.Perm))
	b = binary.BigEndian.AppendUint32(b, in.UID)
	b = binary.BigEndian.AppendUint32(b, in.GID)
	b = binary.BigEndian.AppendUint64(b, uint64(in.Size))
	b = binary.BigEndian.AppendUint64(b, uint64(in.Atime))
	b = binary.BigEndian.AppendUint64(b, uint64(in.Mtime))
	b = binary.BigEndian.AppendUint64(b, uint64(in.Ctime))
	b = binary.BigEndian.AppendUint32(b, in.Nlink)
	b = in.ID.AppendBinary(b)
	b = binary.BigEndian.AppendUint64(b, uint64(in.File))
	b = binary.BigEndian.AppendUint16(b, uint16(len(in.DataLoc)))
	for _, d := range in.DataLoc {
		b = binary.BigEndian.AppendUint32(b, d)
	}
	return b
}

// inodeFixedLen is the EncodeInode size before the DataLoc list.
const inodeFixedLen = 1 + 2 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + 32 + 8 + 2

// DecodeInode parses the output of EncodeInode.
func DecodeInode(b []byte) (*Inode, error) {
	if len(b) < inodeFixedLen {
		return nil, fmt.Errorf("core: inode record too short (%d bytes)", len(b))
	}
	in := &Inode{}
	in.Type = FileType(b[0])
	in.Perm = Perm(binary.BigEndian.Uint16(b[1:]))
	in.UID = binary.BigEndian.Uint32(b[3:])
	in.GID = binary.BigEndian.Uint32(b[7:])
	in.Size = int64(binary.BigEndian.Uint64(b[11:]))
	in.Atime = int64(binary.BigEndian.Uint64(b[19:]))
	in.Mtime = int64(binary.BigEndian.Uint64(b[27:]))
	in.Ctime = int64(binary.BigEndian.Uint64(b[35:]))
	in.Nlink = binary.BigEndian.Uint32(b[43:])
	in.ID = DirIDFromBytes(b[47:])
	in.File = FileID(binary.BigEndian.Uint64(b[79:]))
	n := int(binary.BigEndian.Uint16(b[87:]))
	if len(b) < inodeFixedLen+4*n {
		return nil, fmt.Errorf("core: inode record truncated data locations")
	}
	if n > 0 {
		in.DataLoc = make([]uint32, n)
		for i := 0; i < n; i++ {
			in.DataLoc[i] = binary.BigEndian.Uint32(b[inodeFixedLen+4*i:])
		}
	}
	return in, nil
}

// EncodeDirEntry serializes a dentry value (the key carries the name; the
// value stores type and permissions, per Tab. 3).
func EncodeDirEntry(e DirEntry) []byte {
	b := make([]byte, 0, 3)
	b = append(b, byte(e.Type))
	b = binary.BigEndian.AppendUint16(b, uint16(e.Perm))
	return b
}

// DecodeDirEntry parses the output of EncodeDirEntry; the caller supplies the
// name recovered from the key.
func DecodeDirEntry(name string, b []byte) (DirEntry, error) {
	if len(b) < 3 {
		return DirEntry{}, fmt.Errorf("core: dentry record too short")
	}
	return DirEntry{Name: name, Type: FileType(b[0]), Perm: Perm(binary.BigEndian.Uint16(b[1:]))}, nil
}
