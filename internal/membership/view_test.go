package membership

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"damulticast/internal/ids"
)

func TestNewViewClampsCap(t *testing.T) {
	v := NewView("self", 0)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", v.Cap())
	}
	v = NewView("self", -4)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d, want 1", v.Cap())
	}
}

func TestAddRefusesSelfAndEmpty(t *testing.T) {
	v := NewView("me", 4)
	if v.Add("me") {
		t.Error("view admitted self")
	}
	if v.Add("") {
		t.Error("view admitted empty id")
	}
	if v.Len() != 0 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestAddAndContains(t *testing.T) {
	v := NewView("me", 4)
	if !v.Add("a") {
		t.Error("Add(a) = false")
	}
	if !v.Contains("a") {
		t.Error("Contains(a) = false")
	}
	if v.Contains("b") {
		t.Error("Contains(b) = true")
	}
	// Re-adding refreshes age.
	v.AgeAll()
	v.Add("a")
	if es := v.Entries(); es[0].Age != 0 {
		t.Errorf("age after refresh = %d", es[0].Age)
	}
}

func TestAddAgedKeepsFresher(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("a", 5)
	v.AddAged("a", 2)
	if es := v.Entries(); es[0].Age != 2 {
		t.Errorf("age = %d, want 2", es[0].Age)
	}
	// A staler report never overrides a fresher one.
	v.AddAged("a", 9)
	if es := v.Entries(); es[0].Age != 2 {
		t.Errorf("age = %d, want 2", es[0].Age)
	}
}

func TestEvictionPrefersOldest(t *testing.T) {
	v := NewView("me", 3)
	v.AddAged("a", 0)
	v.AddAged("b", 7)
	v.AddAged("c", 3)
	v.AddAged("d", 1) // overflows; "b" (age 7) must go
	if v.Contains("b") {
		t.Error("oldest entry not evicted")
	}
	for _, id := range []ids.ProcessID{"a", "c", "d"} {
		if !v.Contains(id) {
			t.Errorf("%s missing", id)
		}
	}
}

func TestRemove(t *testing.T) {
	v := NewView("me", 4)
	v.Add("a")
	v.Add("b")
	if !v.Remove("a") {
		t.Error("Remove(a) = false")
	}
	if v.Remove("zz") {
		t.Error("Remove(zz) = true")
	}
	if v.Contains("a") || !v.Contains("b") {
		t.Error("wrong entry removed")
	}
	if v.Len() != 1 {
		t.Errorf("Len = %d", v.Len())
	}
}

func TestSetCapShrinks(t *testing.T) {
	v := NewView("me", 5)
	v.AddAged("a", 0)
	v.AddAged("b", 9)
	v.AddAged("c", 4)
	v.SetCap(1)
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	if !v.Contains("a") {
		t.Error("freshest entry should survive shrink")
	}
	v.SetCap(0)
	if v.Cap() != 1 {
		t.Errorf("Cap = %d", v.Cap())
	}
}

func TestIDsAndSorted(t *testing.T) {
	v := NewView("me", 4)
	v.Add("c")
	v.Add("a")
	v.Add("b")
	got := v.SortedIDs()
	want := []ids.ProcessID{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SortedIDs = %v", got)
	}
	// IDs returns a copy: mutating it must not affect the view.
	idsCopy := v.IDs()
	idsCopy[0] = "zzz"
	if v.Contains("zzz") {
		t.Error("IDs returned internal storage")
	}
}

func TestAgeAllAndEvictOlderThan(t *testing.T) {
	v := NewView("me", 8)
	v.Add("a")
	v.Add("b")
	v.AgeAll()
	v.Add("c") // fresh
	v.AgeAll()
	// ages: a=2, b=2, c=1
	removed := v.EvictOlderThan(1)
	if len(removed) != 2 {
		t.Fatalf("removed = %v", removed)
	}
	if !v.Contains("c") || v.Len() != 1 {
		t.Errorf("view after eviction: %s", v)
	}
}

func TestMergeRespectsCapacity(t *testing.T) {
	v := NewView("me", 3)
	v.Merge([]Entry{{"a", 0}, {"b", 1}, {"c", 2}, {"d", 3}, {"me", 0}})
	if v.Len() != 3 {
		t.Errorf("Len = %d", v.Len())
	}
	if v.Contains("me") {
		t.Error("merge admitted self")
	}
}

func TestClone(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("a", 2)
	c := v.Clone()
	c.Add("b")
	if v.Contains("b") {
		t.Error("clone shares state with original")
	}
	if !c.Contains("a") {
		t.Error("clone missing entry")
	}
	if es := c.Entries(); es[0].Age != 2 {
		t.Errorf("clone lost age: %d", es[0].Age)
	}
}

func TestString(t *testing.T) {
	v := NewView("me", 4)
	v.AddAged("b", 1)
	v.AddAged("a", 0)
	if got := v.String(); got != "{a:0, b:1}" {
		t.Errorf("String = %q", got)
	}
}

func TestSampleAndPick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	v := NewView("me", 10)
	for _, id := range []ids.ProcessID{"a", "b", "c", "d", "e"} {
		v.Add(id)
	}
	s := v.Sample(r, 3)
	if len(s) != 3 {
		t.Errorf("Sample len = %d", len(s))
	}
	s = v.SampleExcluding(r, 5, "a", "b", "c")
	if len(s) != 2 {
		t.Errorf("SampleExcluding len = %d", len(s))
	}
	if _, ok := v.Pick(r); !ok {
		t.Error("Pick failed on non-empty view")
	}
	empty := NewView("me", 2)
	if _, ok := empty.Pick(r); ok {
		t.Error("Pick succeeded on empty view")
	}
}

// Property: Len never exceeds Cap regardless of operation sequence.
func TestPropViewBounded(t *testing.T) {
	prop := func(seed int64, ops []uint8) bool {
		r := rand.New(rand.NewSource(seed))
		v := NewView("self", 1+int(uint(seed)%7))
		for _, op := range ops {
			id := ids.ProcessID(string(rune('a' + int(op)%10)))
			switch op % 4 {
			case 0, 1:
				v.AddAged(id, int(op)%5)
			case 2:
				v.Remove(id)
			case 3:
				v.AgeAll()
				v.EvictOlderThan(3)
			}
			if v.Len() > v.Cap() {
				return false
			}
			if v.Contains("self") {
				return false
			}
			_ = r
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: index stays consistent with entries after arbitrary ops
// (every id in IDs() is Contains(), and Len matches).
func TestPropIndexConsistent(t *testing.T) {
	prop := func(ops []uint8) bool {
		v := NewView("self", 5)
		for _, op := range ops {
			id := ids.ProcessID(string(rune('a' + int(op)%8)))
			if op%3 == 0 {
				v.Remove(id)
			} else {
				v.AddAged(id, int(op)%4)
			}
		}
		seen := 0
		for _, id := range v.IDs() {
			if !v.Contains(id) {
				return false
			}
			seen++
		}
		return seen == v.Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
