package textindex

import (
	"strings"
	"sync"
	"sync/atomic"
)

// stemMemoCap bounds the process-wide stem memo. The vocabulary a
// conference corpus stems is a few thousand words; past the cap Stem
// computes without storing, so adversarial input cannot grow the memo.
const stemMemoCap = 1 << 14

var (
	stemMemo    sync.Map // word -> stem
	stemMemoLen atomic.Int64
)

// Stem applies the Porter stemming algorithm (Porter, 1980) to a
// lowercase word. The implementation follows the original five-step
// definition; it is dependency-free and allocation-light. Results are
// memoised process-wide (up to stemMemoCap words): the same few
// thousand words recur in every document, query and build.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	if s, ok := stemMemo.Load(word); ok {
		return s.(string)
	}
	s := porterStem(word)
	if stemMemoLen.Add(1) <= stemMemoCap {
		// Clone the key: word may be a slice of a much larger text.
		if _, loaded := stemMemo.LoadOrStore(strings.Clone(word), s); !loaded {
			return s
		}
	}
	stemMemoLen.Add(-1)
	return s
}

// porterStem is the uncached Porter stemmer behind Stem.
func porterStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	w := []byte(word)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5(w)
	return string(w)
}

func isVowelAt(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	case 'y':
		return i > 0 && !isVowelAt(w, i-1)
	}
	return false
}

// measure returns the Porter "m" value of w: the number of VC sequences.
func measure(w []byte) int {
	m := 0
	i := 0
	n := len(w)
	for i < n && !isVowelAt(w, i) {
		i++
	}
	for i < n {
		for i < n && isVowelAt(w, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && !isVowelAt(w, i) {
			i++
		}
	}
	return m
}

func containsVowel(w []byte) bool {
	for i := range w {
		if isVowelAt(w, i) {
			return true
		}
	}
	return false
}

func endsDoubleConsonant(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && !isVowelAt(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if isVowelAt(w, n-3) || !isVowelAt(w, n-2) || isVowelAt(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && string(w[len(w)-len(s):]) == s
}

func replaceSuffix(w []byte, suffix, repl string, minMeasure int) ([]byte, bool) {
	if !hasSuffix(w, suffix) {
		return w, false
	}
	stem := w[:len(w)-len(suffix)]
	if measure(stem) <= minMeasure-1 {
		return w, false
	}
	return append(stem, repl...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && containsVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && containsVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleConsonant(stem):
		last := stem[len(stem)-1]
		if last != 'l' && last != 's' && last != 'z' {
			return stem[:len(stem)-1]
		}
		return stem
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && containsVowel(w[:len(w)-1]) {
		return append(w[:len(w)-1], 'i')
	}
	return w
}

var step2Rules = []struct{ suffix, repl string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"}, {"alli", "al"},
	{"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"},
	{"ation", "ate"}, {"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
	{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
	{"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, r := range step2Rules {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 1); ok {
			return out
		}
		if hasSuffix(w, r.suffix) {
			return w
		}
	}
	return w
}

var step3Rules = []struct{ suffix, repl string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, r := range step3Rules {
		if out, ok := replaceSuffix(w, r.suffix, r.repl, 1); ok {
			return out
		}
		if hasSuffix(w, r.suffix) {
			return w
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if measure(stem) <= 1 {
			return w
		}
		if s == "ion" {
			last := stem[len(stem)-1]
			if last != 's' && last != 't' {
				return w
			}
		}
		return stem
	}
	return w
}

func step5(w []byte) []byte {
	// Step 5a.
	if hasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !endsCVC(stem)) {
			w = stem
		}
	}
	// Step 5b.
	if measure(w) > 1 && endsDoubleConsonant(w) && strings.HasSuffix(string(w), "ll") {
		w = w[:len(w)-1]
	}
	return w
}
