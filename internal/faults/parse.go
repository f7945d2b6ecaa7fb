package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Parse decodes the compact fault-spec language used by
// bohrctl -faults. Events are semicolon-separated; each is a kind name
// followed by a colon and comma-separated key=value pairs:
//
//	crash:site=2,start=40,end=70;degrade:site=0,start=30,end=90,factor=0.25
//
// Keys: site, start, end (seconds), factor. Whitespace
// around separators is ignored. The result is validated.
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, rest, found := strings.Cut(part, ":")
		if !found {
			return nil, fmt.Errorf("faults: event %q missing ':' after kind", part)
		}
		kind, err := KindFromString(strings.TrimSpace(head))
		if err != nil {
			return nil, err
		}
		e := Event{Kind: kind}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			key, val, found := strings.Cut(kv, "=")
			if !found {
				return nil, fmt.Errorf("faults: field %q in %q missing '='", kv, part)
			}
			key = strings.TrimSpace(key)
			x, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return nil, fmt.Errorf("faults: field %q in %q: %v", kv, part, err)
			}
			switch key {
			case "site":
				e.Site = int(x)
			case "start":
				e.Start = x
			case "end":
				e.End = x
			case "factor":
				e.Factor = x
			default:
				return nil, fmt.Errorf("faults: unknown field %q in %q", key, part)
			}
		}
		s.Events = append(s.Events, e)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// String renders the schedule back into the spec language Parse
// accepts, with events in a stable order. Round-trips through Parse.
func (s *Schedule) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, 0, len(s.Events))
	for _, e := range s.Events {
		var b strings.Builder
		fmt.Fprintf(&b, "%s:site=%d,start=%s,end=%s", e.Kind, e.Site, ftoa(e.Start), ftoa(e.End))
		if e.Factor != 0 {
			fmt.Fprintf(&b, ",factor=%s", ftoa(e.Factor))
		}
		parts = append(parts, b.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
