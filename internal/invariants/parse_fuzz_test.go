package invariants

import (
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to the database parser, which reads
// untrusted bytes (uploads, replayed logs, reloaded files). The
// contract under test: Parse returns an error and never panics, and
// any database it accepts formats to text that parses back to an equal
// database and formats byte for byte the same.
func FuzzParse(f *testing.F) {
	var b strings.Builder
	if _, err := sampleDB().WriteTo(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	for _, in := range badIDInputs {
		f.Add(in.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		db, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		once := format(t, db)
		back, err := Parse(strings.NewReader(once))
		if err != nil {
			t.Fatalf("formatted database does not parse: %v\n%s", err, once)
		}
		if !back.Equal(db) {
			t.Fatalf("format/parse changed the database:\n%s", once)
		}
		if twice := format(t, back); twice != once {
			t.Fatalf("format is not stable:\n%s\nthen\n%s", once, twice)
		}
	})
}

func format(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	if _, err := db.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
