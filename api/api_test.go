package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestCursorRoundTrip(t *testing.T) {
	for _, off := range []int{0, 1, 49, 1_000_000} {
		c := EncodeCursor(off)
		got, err := DecodeCursor(c)
		if err != nil {
			t.Fatalf("DecodeCursor(%q): %v", c, err)
		}
		if got != off {
			t.Fatalf("round-trip %d -> %d", off, got)
		}
	}
	if off, err := DecodeCursor(""); err != nil || off != 0 {
		t.Fatalf("empty cursor = (%d, %v), want (0, nil)", off, err)
	}
}

// garbageCursors are tokens DecodeCursor must reject; they also seed
// FuzzDecodeCursor.
var garbageCursors = []string{
	"not base64 !!",
	"bm9wZQ", // "nope": no version prefix
	EncodeCursor(5) + "x",
	"djE6LTM",                         // "v1:-3": negative
	EncodeCursor(MaxCursorOffset + 1), // overflow bait: offset+limit must never wrap
}

func TestCursorRejectsGarbage(t *testing.T) {
	for _, c := range garbageCursors {
		if _, err := DecodeCursor(c); !errors.Is(err, ErrBadCursor) {
			t.Fatalf("DecodeCursor(%q) err = %v, want ErrBadCursor", c, err)
		}
	}
	if off, err := DecodeCursor(EncodeCursor(MaxCursorOffset)); err != nil || off != MaxCursorOffset {
		t.Fatalf("max offset round-trip = (%d, %v)", off, err)
	}
}

// FuzzDecodeCursor: cursors are client-supplied bytes. No token panics
// the decoder, and an accepted one names an offset in
// [0, MaxCursorOffset] that survives re-encoding.
func FuzzDecodeCursor(f *testing.F) {
	for _, c := range append([]string{"", EncodeCursor(0), EncodeCursor(49), EncodeCursor(MaxCursorOffset)}, garbageCursors...) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, s string) {
		off, err := DecodeCursor(s)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("DecodeCursor(%q) err = %v, want ErrBadCursor", s, err)
			}
			return
		}
		if off < 0 || off > MaxCursorOffset {
			t.Fatalf("DecodeCursor(%q) = %d, outside [0, %d]", s, off, MaxCursorOffset)
		}
		if again, err := DecodeCursor(EncodeCursor(off)); err != nil || again != off {
			t.Fatalf("DecodeCursor(%q) = %d, re-encoded decodes to (%d, %v)", s, off, again, err)
		}
	})
}

func TestPaginate(t *testing.T) {
	items := []int{0, 1, 2, 3, 4}
	p := Paginate(items, 0, 2)
	if len(p.Items) != 2 || p.Items[0] != 0 || p.NextCursor == "" || p.Limit != 2 {
		t.Fatalf("first page = %+v", p)
	}
	off, err := DecodeCursor(p.NextCursor)
	if err != nil || off != 2 {
		t.Fatalf("next offset = (%d, %v)", off, err)
	}
	p = Paginate(items, 4, 2)
	if len(p.Items) != 1 || p.Items[0] != 4 || p.NextCursor != "" {
		t.Fatalf("last page = %+v", p)
	}
	// Past the end and negative offsets are clamped, not errors.
	if p = Paginate(items, 99, 2); len(p.Items) != 0 || p.NextCursor != "" {
		t.Fatalf("past-end page = %+v", p)
	}
	if p = Paginate(items, -3, 2); len(p.Items) != 2 || p.Items[0] != 0 {
		t.Fatalf("negative-offset page = %+v", p)
	}
	// Items must serialize as [], not null.
	raw, _ := json.Marshal(Paginate([]int(nil), 0, 2))
	if !strings.Contains(string(raw), `"items":[]`) {
		t.Fatalf("empty page JSON = %s", raw)
	}
}

func TestClampLimit(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, DefaultPageSize}, {-7, DefaultPageSize}, {1, 1},
		{MaxPageSize, MaxPageSize}, {MaxPageSize + 1, MaxPageSize}, {1 << 30, MaxPageSize},
	} {
		if got := ClampLimit(tc.in); got != tc.want {
			t.Fatalf("ClampLimit(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	raw, err := json.Marshal(ErrorResponse{Error: &Error{Code: CodeNotFound, Message: "user \"x\""}})
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Error.Code != CodeNotFound || decoded.Error.Message == "" {
		t.Fatalf("envelope = %s", raw)
	}
	var e error = &Error{Code: CodeInvalidArgument, Message: "bad"}
	if !IsCode(e, CodeInvalidArgument) || IsCode(e, CodeNotFound) {
		t.Fatalf("IsCode misclassified %v", e)
	}
}

func TestBatchEntityRoundTrip(t *testing.T) {
	ent, err := NewBatchEntity(KindUser, User{ID: "u1", Name: "One"})
	if err != nil {
		t.Fatal(err)
	}
	var u User
	if err := json.Unmarshal(ent.Data, &u); err != nil {
		t.Fatal(err)
	}
	if ent.Kind != KindUser || u.ID != "u1" {
		t.Fatalf("entity = %+v user = %+v", ent, u)
	}
}
