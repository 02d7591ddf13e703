package model

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindSend, "send"},
		{KindRecv, "recv"},
		{KindCrash, "crash"},
		{KindFailed, "failed"},
		{KindInternal, "internal"},
		{Kind(0), "invalid(0)"},
		{Kind(99), "invalid(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestEventString(t *testing.T) {
	tests := []struct {
		name string
		ev   Event
		want string
	}{
		{"send", Send(1, 2, 5, "SUSP", 4), "send_1(2, m5[SUSP j=4])"},
		{"send no subject", Send(1, 2, 5, "APP", None), "send_1(2, m5[APP])"},
		{"recv", Recv(2, 1, 5, "SUSP", 4), "recv_2(1, m5[SUSP j=4])"},
		{"crash", Crash(3), "crash_3"},
		{"failed", Failed(3, 7), "failed_3(7)"},
		{"internal", Internal(2, "leader", None), "internal_2[leader]"},
		{"internal subject", Internal(2, "suspect", 9), "internal_2[suspect j=9]"},
		{"invalid", Event{Proc: 4, Kind: Kind(42)}, "invalid_4(kind=42)"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.ev.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestEventSame(t *testing.T) {
	a := Send(1, 2, 5, "APP", None)
	b := a
	b.Seq = 99
	b.Time = 1234
	if !a.Same(b) {
		t.Error("Same must ignore Seq and Time")
	}
	c := a
	c.Tag = "HB"
	if a.Same(c) {
		t.Error("Same must compare payload tags")
	}
	d := a
	d.Msg = 6
	if a.Same(d) {
		t.Error("Same must compare message ids")
	}
}

func TestHistoryString(t *testing.T) {
	h := History{Failed(2, 1), Crash(1)}
	s := h.String()
	if !strings.Contains(s, "failed_2(1)") || !strings.Contains(s, "crash_1") {
		t.Errorf("History.String missing events: %q", s)
	}
}

func TestProcIDString(t *testing.T) {
	if ProcID(17).String() != "17" {
		t.Errorf("ProcID(17).String() = %q", ProcID(17).String())
	}
}
